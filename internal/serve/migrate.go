package serve

// Session migration: the shard-side half of a live ring change. When the
// topology moves a session's home, the orchestrator (cluster.go) drains
// that one session — not the shard — through four steps, each of which
// preserves Ack == durable:
//
//	Handoff  source extracts the session's full pipeline state, forcing
//	         the owning connection off first (the park/release machinery
//	         from PR 7, driven from outside the session goroutine). The
//	         source keeps the session and its checkpoint: a handoff is a
//	         copy, not a move, until the destination proves it holds it.
//	Adopt    destination reconstructs a pipeline from the state — a full
//	         replay-equivalent validation, the same path crash resume
//	         uses — and durably checkpoints it before registering. Only
//	         after this save returns does the migration have a second
//	         durable copy.
//	Forget   source drops its copy (state, checkpoint file, migrating
//	         flag). Between Adopt and Forget two durable copies exist;
//	         never zero.
//	(router) Repoint + Release — the routing plane's business.
//
// A failure anywhere before Forget aborts with the source untouched
// (AbortHandoff clears the flag); the session simply stays where it was.
// While a session is migrating, the shard refuses its reconnects with
// Retry — the router holds them too, but the shard cannot assume every
// client comes through a router.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"ormprof/internal/checkpoint"
)

// errUnknownSession marks a handoff target this server holds no state
// for, or whose completion is already under way. An orchestrator that
// scanned SessionIDs moments ago matches on it to tell "the session
// completed in the meantime" (benign — its final state is durable here,
// or about to be) from a real migration failure.
var errUnknownSession = errors.New("serve: unknown session")

// SessionIDs lists every session this server holds state for: live,
// parked, and resumed-from-disk but not yet adopted. Sorted, so
// orchestrators migrate in a deterministic order.
func (s *Server) SessionIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions)+len(s.resumed))
	for id := range s.sessions {
		out = append(out, id)
	}
	for id := range s.resumed {
		if _, dup := s.sessions[id]; !dup {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Handoff begins migrating a session away: it marks the session
// migrating (reconnects now draw Retry), forces the owning connection
// off if one is live, waits for the release, and returns a snapshot of
// the session's full state. The source keeps everything until Forget;
// on any failure the migrating mark is rolled back and the session is
// exactly as it was.
func (s *Server) Handoff(id string) (*checkpoint.State, error) {
	s.mu.Lock()
	if s.migrating[id] {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: session %q is already migrating", id)
	}
	st, live := s.sessions[id]
	ck, resumed := s.resumed[id]
	if (!live && !resumed) || (live && st.finishing) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", errUnknownSession, id)
	}
	s.migrating[id] = true
	s.mu.Unlock()

	fail := func(err error) (*checkpoint.State, error) {
		s.AbortHandoff(id)
		return nil, err
	}
	if !live {
		// Pure disk state: nothing owns it, snapshot as-is.
		return ck, nil
	}
	// Force the owner off. Closing the conn ends its read loop; the
	// handler parks (final checkpoint) and releases. The migrating mark
	// set above guarantees no reconnect claims the state in between.
	for {
		s.mu.Lock()
		if !st.active {
			s.mu.Unlock()
			break
		}
		ch := st.released
		conn := st.conn
		s.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		select {
		case <-ch:
		case <-s.killCh:
			return fail(fmt.Errorf("serve: session %q: server killed during handoff", id))
		case <-time.After(s.cfg.IdleTimeout):
			return fail(fmt.Errorf("serve: session %q: handoff timed out waiting for release", id))
		}
	}
	// Parked and marked migrating: this goroutine is the sole owner now,
	// the same ownership transfer Shutdown's final flush relies on.
	if st.dirty && !s.saveCheckpoint(st) {
		return fail(fmt.Errorf("serve: session %q: handoff checkpoint failed", id))
	}
	state, err := st.pl.state(id)
	if err != nil {
		return fail(fmt.Errorf("serve: session %q: handoff snapshot: %w", id, err))
	}
	return state, nil
}

// Adopt installs a migrated session's state on this server. The state is
// validated by full reconstruction (the crash-resume path) and durably
// checkpointed BEFORE registration — when Adopt returns nil, this shard
// can crash and still resume the session, which is what lets the source
// Forget its copy. Adopting over a session this server already holds is
// refused: that is a split-brain signal, not a retry case.
func (s *Server) Adopt(ck *checkpoint.State) error {
	if ck == nil || ck.SessionID == "" {
		return fmt.Errorf("serve: adopt: state without a session ID")
	}
	pl, err := pipelineFromState(ck, s.cfg.MaxLMADs, s.govRoot.Sub(s.cfg.SessionMemBudget), s.governed())
	if err != nil {
		return fmt.Errorf("serve: adopt %q: state does not reconstruct: %w", ck.SessionID, err)
	}
	if err := checkpoint.Save(checkpoint.PathFor(s.cfg.CheckpointDir, ck.SessionID), ck); err != nil {
		pl.release()
		return fmt.Errorf("serve: adopt %q: %w", ck.SessionID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.sessions[ck.SessionID]; exists {
		pl.release()
		return fmt.Errorf("serve: adopt %q: session already live here", ck.SessionID)
	}
	if s.killed || s.draining {
		pl.release()
		return fmt.Errorf("serve: adopt %q: server is not accepting sessions", ck.SessionID)
	}
	delete(s.resumed, ck.SessionID) // the migrated copy supersedes any stale disk state
	s.sessions[ck.SessionID] = &sessionState{id: ck.SessionID, pl: pl, acked: ck.FramesApplied}
	s.cfg.Logf("session %s: adopted at frame %d", ck.SessionID, ck.FramesApplied)
	return nil
}

// Forget completes a migration at the source: the session's in-memory
// state, resume entry, checkpoint file, and migrating mark all go. Only
// call after the destination's Adopt returned nil.
func (s *Server) Forget(id string) error {
	s.mu.Lock()
	if !s.migrating[id] {
		s.mu.Unlock()
		return fmt.Errorf("serve: forget %q: session is not migrating", id)
	}
	st, live := s.sessions[id]
	delete(s.sessions, id)
	delete(s.resumed, id)
	delete(s.migrating, id)
	s.mu.Unlock()
	if live {
		st.pl.release()
	}
	os.Remove(checkpoint.PathFor(s.cfg.CheckpointDir, id))
	return nil
}

// AbortHandoff rolls a failed migration back: the migrating mark clears
// and the session (still fully present — Handoff never removes) serves
// reconnects again.
func (s *Server) AbortHandoff(id string) {
	s.mu.Lock()
	delete(s.migrating, id)
	s.mu.Unlock()
}
