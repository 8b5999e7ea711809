package chaos

// Transport-level chaos: a Link sits between a frame producer and the wire
// and injects seeded drops, duplicates, and bounded reordering delays. It is
// the network-layer sibling of the substrate Mask — faults happen to frames
// in flight instead of to nodes and links — and obeys the same determinism
// contract: no wall clock, no global randomness, no map iteration.
//
// Every per-frame decision is a pure function of (seed, frame bytes), drawn
// by hashing the frame content and mixing with the seed. The transport
// encodes the retransmission attempt number into each frame, so a
// retransmitted frame hashes differently from its first attempt and redraws
// its fate — exactly one independent coin per wire appearance, which is what
// makes retransmission effective against a deterministic adversary.

// LinkConfig tunes the injected impairments. All probabilities are in
// [0, 1]; zero values inject nothing.
type LinkConfig struct {
	// Seed scopes the per-frame decision stream (mix it from the run seed
	// with stats.SplitSeed).
	Seed int64
	// Drop is the probability a frame silently vanishes.
	Drop float64
	// Dup is the probability a frame is delivered twice back to back.
	Dup float64
	// Delay is the probability a frame is held back and re-inserted later —
	// after between 1 and delayMax subsequent frames — reordering the
	// stream.
	Delay float64
}

// delayMax bounds a delayed frame's reordering distance in frames.
const delayMax = 3

// LinkStats counts the impairments a Link actually injected.
type LinkStats struct {
	Sent       int // frames handed to Send
	Delivered  int // frames that reached the output (duplicates included)
	Dropped    int
	Duplicated int
	Delayed    int
}

type heldFrame struct {
	frame []byte
	due   int // deliver once this many frames have passed through
}

// Link applies LinkConfig impairments to a frame stream. Not goroutine-safe;
// wrap sends in the caller's serialization.
type Link struct {
	cfg   LinkConfig
	out   func([]byte) error
	pos   int
	held  []heldFrame
	stats LinkStats
}

// NewLink builds a link that delivers surviving frames to out.
func NewLink(cfg LinkConfig, out func([]byte) error) *Link {
	return &Link{cfg: cfg, out: out}
}

// Stats snapshots the impairment counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send passes one frame through the impaired link. The frame is copied if it
// must be held, so the caller may reuse the buffer.
func (l *Link) Send(frame []byte) error {
	l.pos++
	l.stats.Sent++
	if err := l.deliverDue(); err != nil {
		return err
	}
	h := mix64(uint64(l.cfg.Seed), hashBytes(frame))
	dropDraw, h := nextU01(h)
	if dropDraw < l.cfg.Drop {
		l.stats.Dropped++
		return nil
	}
	dupDraw, h := nextU01(h)
	delayDraw, h := nextU01(h)
	if delayDraw < l.cfg.Delay {
		span, _ := nextDraw(h)
		due := l.pos + 1 + int(span%delayMax)
		l.held = append(l.held, heldFrame{frame: append([]byte(nil), frame...), due: due})
		l.stats.Delayed++
		return nil
	}
	if err := l.deliver(frame); err != nil {
		return err
	}
	if dupDraw < l.cfg.Dup {
		l.stats.Duplicated++
		return l.deliver(frame)
	}
	return nil
}

// Flush delivers every held frame in hold order. Call at end of stream so
// delayed frames are not lost.
func (l *Link) Flush() error {
	for _, hf := range l.held {
		if err := l.deliver(hf.frame); err != nil {
			return err
		}
	}
	l.held = l.held[:0]
	return nil
}

func (l *Link) deliverDue() error {
	if len(l.held) == 0 {
		return nil
	}
	keep := l.held[:0]
	for _, hf := range l.held {
		if hf.due <= l.pos {
			if err := l.deliver(hf.frame); err != nil {
				return err
			}
			continue
		}
		keep = append(keep, hf)
	}
	l.held = keep
	return nil
}

func (l *Link) deliver(frame []byte) error {
	l.stats.Delivered++
	return l.out(frame)
}

// hashBytes is FNV-1a over the frame content.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer over seed ⊕ content hash; nextDraw walks
// the splitmix sequence for further independent draws.
func mix64(seed, h uint64) uint64 {
	z := seed ^ h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func nextDraw(state uint64) (draw, next uint64) {
	next = state + 0x9e3779b97f4a7c15
	return mix64(0, next), next
}

// nextU01 draws a uniform float in [0,1) and advances the state.
func nextU01(state uint64) (float64, uint64) {
	d, next := nextDraw(state)
	return float64(d>>11) / (1 << 53), next
}
