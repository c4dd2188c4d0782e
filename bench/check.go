package main

import "fmt"

// failures counts every way an op can fail. Their sum over attempted
// ops is failed_ratio; any non-zero count makes the run incorrect.
type failures struct {
	errored   int64 // a command returned an error or a refusal
	missing   int64 // an expected delivery never arrived (after drain)
	duplicate int64 // a delivery arrived twice, or was never expected
	reordered int64 // a delivery arrived after a later one on its subscription
	wrong     int64 // a delivery or query result had the wrong content
}

func (f *failures) total() int64 {
	return f.errored + f.missing + f.duplicate + f.reordered + f.wrong
}

// leftover counts what a subscription still holds after the drain:
// queued deliveries nobody expected, and pushes the client dropped.
func (f *failures) leftover(queued int, dropped uint64) {
	f.duplicate += int64(queued)
	f.missing += int64(dropped)
}

func (f *failures) String() string {
	return fmt.Sprintf("errored=%d missing=%d duplicate=%d reordered=%d wrong=%d",
		f.errored, f.missing, f.duplicate, f.reordered, f.wrong)
}

// subCheck verifies one subscription's delivery stream against the
// order the generator expects: op ids strictly in the expected order,
// each exactly once. It is the reference the daemon's deliveries are
// graded against, so it holds no daemon-derived state.
type subCheck struct {
	// ahead is an op id received before its turn (a later expected op
	// arrived first), held until that op is awaited; -1 when empty.
	ahead int64
	// skipped holds op ids counted missing because a later one arrived
	// first; a late arrival moves one from missing to reordered.
	skipped map[int64]bool
}

func newSubCheck() *subCheck { return &subCheck{ahead: -1} }

// await accounts for the delivery of op k, reading further deliveries
// through recv (which blocks, and reports ok=false once the drain
// deadline has passed). It returns whether op k's delivery was seen in
// order; every anomaly on the way is counted in f.
func (c *subCheck) await(k int64, recv func() (id int64, ok bool), f *failures) bool {
	if c.ahead >= 0 {
		if c.ahead == k {
			c.ahead = -1
			return true
		}
		c.skip(k, f)
		return false
	}
	for {
		id, ok := recv()
		if !ok {
			f.missing++
			return false
		}
		switch {
		case id == k:
			return true
		case id > k:
			c.ahead = id
			c.skip(k, f)
			return false
		case c.skipped[id]:
			delete(c.skipped, id)
			f.missing--
			f.reordered++
		default:
			f.duplicate++
		}
	}
}

func (c *subCheck) skip(k int64, f *failures) {
	if c.skipped == nil {
		c.skipped = make(map[int64]bool)
	}
	c.skipped[k] = true
	f.missing++
}
