package sequitur

import "fmt"

// CheckInvariants verifies the two Sequitur invariants plus internal
// bookkeeping consistency, returning a descriptive error for the first
// violation found. Intended for tests; it walks the whole grammar.
//
// Digram uniqueness is checked in its precise form: no digram value may
// occur at two non-overlapping positions. Overlapping occurrences inside a
// run of identical symbols (as in "aaa") are permitted, exactly as in the
// reference algorithm.
func (g *Grammar) CheckInvariants() error {
	type pos struct {
		rule uint32
		idx  int
	}
	seen := make(map[digram]pos)
	refs := make(map[uint32]int)
	walked := 0

	for id, r := range g.rules {
		if r.ID != id {
			return fmt.Errorf("sequitur: rule map key %d != rule ID %d", id, r.ID)
		}
		if !r.guard.guard || r.guard.rule != r {
			return fmt.Errorf("sequitur: rule %d has a corrupt guard", id)
		}
		i := 0
		for s := r.first(); !s.guard; s = s.next {
			if s.next.prev != s || s.prev.next != s {
				return fmt.Errorf("sequitur: rule %d has corrupt links at index %d", id, i)
			}
			if s.rule != nil {
				if _, ok := g.rules[s.rule.ID]; !ok {
					return fmt.Errorf("sequitur: rule %d references dead rule %d", id, s.rule.ID)
				}
				refs[s.rule.ID]++
			}
			if !s.next.guard {
				k := key(s)
				if prev, dup := seen[k]; dup {
					overlapping := prev.rule == id && prev.idx == i-1 && sameValue(s.prev, s)
					if !overlapping {
						return fmt.Errorf("sequitur: digram %v occurs at rule %d idx %d and rule %d idx %d",
							k, prev.rule, prev.idx, id, i)
					}
				} else {
					seen[k] = pos{rule: id, idx: i}
				}
			}
			i++
		}
		walked += i
	}

	for id, r := range g.rules {
		if id == g.start.ID {
			continue
		}
		actual := refs[id]
		if actual < 2 {
			return fmt.Errorf("sequitur: rule %d used %d time(s); rule utility requires >= 2", id, actual)
		}
		if actual != r.refs {
			return fmt.Errorf("sequitur: rule %d stored refcount %d != actual %d", id, r.refs, actual)
		}
	}

	// The incremental symbol count backing Symbols and Footprint must agree
	// with a full walk.
	if walked != g.symCount {
		return fmt.Errorf("sequitur: incremental symbol count %d != walked count %d", g.symCount, walked)
	}

	// The digram index must point at live, correctly keyed occurrences.
	for k, s := range g.digrams {
		if s.next == nil || s.prev == nil {
			return fmt.Errorf("sequitur: digram index entry %v points at an unlinked symbol", k)
		}
		if s.guard || s.next.guard {
			return fmt.Errorf("sequitur: digram index entry %v points at a guard adjacency", k)
		}
		if key(s) != k {
			return fmt.Errorf("sequitur: digram index entry %v keyed wrong (actual %v)", k, key(s))
		}
	}
	return nil
}
