// Package sent exercises sentinelerr.
package sent

import (
	"errors"
	"fmt"

	"sentdep"
)

type notFoundError struct{ id int }

func (e notFoundError) Error() string { return fmt.Sprintf("%d not found", e.id) }

var errSentinel = errors.New("sentinel")

func equalityCompare(err error) bool {
	return err == errSentinel // want "errors compared with == never match wrapped sentinels; use errors.Is"
}

func inequalityCompare(err error) bool {
	return err != errSentinel // want "errors compared with != never match wrapped sentinels; use errors.Is"
}

func nilCompare(err error) bool {
	return err == nil // ok: nil check
}

func properIs(err error) bool {
	return errors.Is(err, errSentinel) // ok
}

func typeAssert(err error) bool {
	_, ok := err.(notFoundError) // want "type assertion on an error does not unwrap; use errors.As"
	return ok
}

func typeSwitch(err error) string {
	switch err.(type) { // want "type switch on an error does not unwrap; use errors.As"
	case notFoundError:
		return "nf"
	default:
		return "?"
	}
}

func properAs(err error) bool {
	var nf notFoundError
	return errors.As(err, &nf) // ok
}

func assertThenAs(err error) bool {
	if _, ok := err.(notFoundError); ok { // ok: a fast path, errors.As unwraps below
		return true
	}
	var nf notFoundError
	return errors.As(err, &nf)
}

func assertThenAsOnAnother(err, other error) bool {
	if _, ok := err.(notFoundError); ok { // want "type assertion on an error does not unwrap; use errors.As"
		return true
	}
	var nf notFoundError
	return errors.As(other, &nf)
}

func nonErrorAssert(v interface{}) bool {
	_, ok := v.(int) // ok: not an error assertion
	return ok
}

func discardsSentinel() int {
	n, _, _ := sentdep.Route(3) // want "error result of Route \\(sentinel contract\\) is discarded"
	return n
}

func dropsAllResults() {
	sentdep.Route(3) // want "error result of Route \\(sentinel contract\\) is discarded"
}

func nilOnlyHandling() float64 {
	_, d, err := sentdep.Route(3) // want "Route returns a sentinel error but this function never branches on errors.Is"
	if err != nil {
		return -1
	}
	return d
}

func brandedHandling() float64 {
	_, d, err := sentdep.Route(3) // ok: branches on the sentinel helper
	if err != nil {
		if sentdep.IsNoInstance(err) {
			return 0
		}
		return -1
	}
	return d
}

func errorsIsHandling() float64 {
	_, d, err := sentdep.Route(3) // ok: errors.Is
	if errors.Is(err, sentdep.ErrNoInstance) {
		return 0
	}
	return d
}

func annotatedNilOnly() float64 {
	//socllint:ignore sentinelerr fixture: any failure funnels to the same fallback by design
	_, d, err := sentdep.Route(3)
	if err != nil {
		return -1
	}
	return d
}

func unannotatedCallee() error {
	_, err := plainCall() // ok: no sentinel contract on the callee
	return err
}

func plainCall() (int, error) { return 0, nil }
