package fl

func bitwiseContract(a, b float64) bool {
	return a == b // ok: _test.go files assert bitwise contracts
}
