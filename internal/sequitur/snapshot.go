package sequitur

import "fmt"

// This file implements exact grammar snapshots: an exported, pure-data view
// of every piece of mutable Grammar state, sufficient to reconstruct a
// grammar that behaves identically to the original under all future
// Appends. Snapshots are what make a long-running profiling session
// checkpointable (internal/checkpoint): grammar construction is
// incremental and history-dependent, so resuming a session mid-stream
// requires more than the rules — it requires the digram index, whose
// entries record *which occurrence* of each digram is canonical, and the
// nextID counter, which outlives deleted rules.

// SnapshotRule is the exported body of one rule.
type SnapshotRule struct {
	ID   uint32
	Body []Sym
}

// DigramRef locates one indexed digram occurrence: the digram starting at
// symbol Pos (0-based) of rule Rule's body.
type DigramRef struct {
	Rule uint32
	Pos  uint32
}

// Snapshot is the complete mutable state of a Grammar at one instant.
// It contains no pointers into the live grammar; mutating the grammar
// after Snapshot does not affect it.
type Snapshot struct {
	// NextID is the next rule ID to be minted (rule IDs are never reused,
	// so this can exceed the largest live rule ID).
	NextID uint32
	// Input is the number of terminals appended so far.
	Input uint64
	// Rules holds every live rule in ascending ID order; the start rule
	// (ID 0) is always first.
	Rules []SnapshotRule
	// Digrams locates the canonical occurrence of every indexed digram,
	// sorted by (Rule, Pos) for deterministic serialization.
	Digrams []DigramRef
}

// Snapshot captures the grammar's complete state in one walk of the rule
// bodies. It fails only if the internal invariants are broken (a digram
// index entry pointing at an unlinked symbol, or keyed by a digram its
// symbol no longer starts), which would make any snapshot unsound.
func (g *Grammar) Snapshot() (*Snapshot, error) {
	ids := g.RuleIDs()
	snap := &Snapshot{
		NextID:  g.nextID,
		Input:   g.input,
		Rules:   make([]SnapshotRule, len(ids)),
		Digrams: make([]DigramRef, 0, len(g.digrams)),
	}
	// Every body is a full-capacity window of one backing array, so an
	// append to one body can never clobber the next.
	syms := make([]Sym, 0, g.symCount)
	// Rules in ascending ID order, each body front to back: the canonical
	// digram occurrences come out already sorted by (Rule, Pos).
	for i, id := range ids {
		from, pos := len(syms), uint32(0)
		for s := g.rules[id].first(); !s.guard; s = s.next {
			v, isRule := value(s)
			syms = append(syms, Sym{Value: v, IsRule: isRule})
			if !s.next.guard && g.digrams[key(s)] == s {
				snap.Digrams = append(snap.Digrams, DigramRef{Rule: id, Pos: pos})
			}
			pos++
		}
		snap.Rules[i] = SnapshotRule{ID: id, Body: syms[from:len(syms):len(syms)]}
	}
	// Each ref accounts for a distinct index entry, so a short count means
	// some entry no live, correctly keyed occurrence accounts for.
	if len(snap.Digrams) != len(g.digrams) {
		return nil, g.brokenIndex()
	}
	return snap, nil
}

// brokenIndex names a digram index entry that Snapshot's walk did not
// account for. It runs only on a broken grammar, so it can afford a second
// walk.
func (g *Grammar) brokenIndex() error {
	linked := make(map[*symbol]bool, g.symCount)
	for _, r := range g.rules {
		for s := r.first(); !s.guard; s = s.next {
			linked[s] = true
		}
	}
	for k, s := range g.digrams {
		switch {
		case !linked[s]:
			return fmt.Errorf("sequitur: digram index entry %v points at an unlinked symbol", k)
		case key(s) != k:
			return fmt.Errorf("sequitur: digram index entry %v is stale (symbol now keys %v)", k, key(s))
		}
	}
	return fmt.Errorf("sequitur: digram index has %d entries but the rule bodies account for fewer", len(g.digrams))
}

// FromSnapshot reconstructs a grammar from a snapshot. The result is
// behaviorally identical to the snapshotted grammar: the same rules, the
// same canonical digram occurrences, the same ID counter — so any sequence
// of future Appends produces exactly the grammar the original would have.
func FromSnapshot(snap *Snapshot) (*Grammar, error) {
	g := &Grammar{
		rules:   make(map[uint32]*Rule, len(snap.Rules)),
		digrams: make(map[digram]*symbol, len(snap.Digrams)),
		nextID:  snap.NextID,
		input:   snap.Input,
	}
	// Pass 1: create every rule's shell so non-terminal references resolve
	// regardless of rule order.
	for _, sr := range snap.Rules {
		if _, dup := g.rules[sr.ID]; dup {
			return nil, fmt.Errorf("sequitur: snapshot has duplicate rule %d", sr.ID)
		}
		if sr.ID >= snap.NextID {
			return nil, fmt.Errorf("sequitur: rule %d not below NextID %d", sr.ID, snap.NextID)
		}
		r := &Rule{ID: sr.ID}
		guard := &symbol{rule: r, guard: true}
		guard.next, guard.prev = guard, guard
		r.guard = guard
		g.rules[sr.ID] = r
	}
	start, ok := g.rules[0]
	if !ok {
		return nil, fmt.Errorf("sequitur: snapshot has no start rule (ID 0)")
	}
	g.start = start
	// Pass 2: fill bodies with raw pointer surgery — no digram maintenance,
	// the index is restored verbatim below.
	for _, sr := range snap.Rules {
		r := g.rules[sr.ID]
		g.symCount += len(sr.Body)
		for _, sym := range sr.Body {
			s := &symbol{}
			if sym.IsRule {
				ref, ok := g.rules[uint32(sym.Value)]
				if !ok {
					return nil, fmt.Errorf("sequitur: rule %d references missing rule %d", sr.ID, sym.Value)
				}
				if sym.Value > uint64(^uint32(0)) {
					return nil, fmt.Errorf("sequitur: rule reference %d overflows uint32", sym.Value)
				}
				s.rule = ref
				ref.refs++
			} else {
				s.term = sym.Value
			}
			last := r.guard.prev
			last.next = s
			s.prev = last
			s.next = r.guard
			r.guard.prev = s
		}
	}
	// Pass 3: restore the digram index positionally. A cursor walks each
	// rule forward, so refs in (Rule, Pos) order — Snapshot's order — cost
	// one walk of the grammar; an out-of-order ref restarts the cursor at
	// its rule's head.
	var (
		cur *Rule
		s   *symbol
		pos uint32
	)
	for _, ref := range snap.Digrams {
		if cur == nil || ref.Rule != cur.ID || ref.Pos < pos {
			r, ok := g.rules[ref.Rule]
			if !ok {
				return nil, fmt.Errorf("sequitur: digram ref names missing rule %d", ref.Rule)
			}
			cur, s, pos = r, r.first(), 0
		}
		for ; pos < ref.Pos && !s.guard; pos++ {
			s = s.next
		}
		if s.guard || s.next.guard {
			return nil, fmt.Errorf("sequitur: digram ref (%d, %d) out of range", ref.Rule, ref.Pos)
		}
		k := key(s)
		if _, dup := g.digrams[k]; dup {
			return nil, fmt.Errorf("sequitur: duplicate digram index entry at (%d, %d)", ref.Rule, ref.Pos)
		}
		g.digrams[k] = s
	}
	return g, nil
}
