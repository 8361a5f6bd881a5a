package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"ormprof/internal/experiments"
	"ormprof/internal/workloads"
)

// The output check must name the session and the file when a single byte
// of one profile differs from the offline reference.
func TestCheckCatchesOneByteDifference(t *testing.T) {
	prog, err := workloads.New("linkedlist", workloads.Config{Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)
	arts, err := reference("linkedlist", buf.Events, sites)
	if err != nil {
		t.Fatal(err)
	}
	in := &input{name: "linkedlist"}
	ref := make(map[string][32]byte)
	good := make(map[string][32]byte)
	bad := make(map[string][32]byte)
	for ext, data := range arts {
		ref[ext] = sha256.Sum256(data)
		good[ext] = ref[ext]
		bad[ext] = ref[ext]
	}
	flipped := append([]byte(nil), arts[".leap"]...)
	flipped[len(flipped)/2] ^= 1
	bad[".leap"] = sha256.Sum256(flipped)

	b := &bench{w: daemonExact, out: io.Discard, sessions: []*session{
		{id: "s0000-linkedlist", in: in, sums: good},
		{id: "s0001-linkedlist", in: in, sums: bad},
	}}
	b.checkSessions(map[string]map[string][32]byte{"linkedlist": ref})
	if len(b.failures) != 1 {
		t.Fatalf("failures = %q, want exactly one", b.failures)
	}
	if f := b.failures[0]; !strings.HasPrefix(f, "s0001-linkedlist:") || !strings.Contains(f, "linkedlist.leap") {
		t.Errorf("failure %q does not name the session and the file", f)
	}
	if rec := b.record([]float64{1}); rec.Correct || rec.Failed != 1 || rec.FailedSessionRatio != 0.5 {
		t.Errorf("record: correct=%v failed=%d ratio=%v", rec.Correct, rec.Failed, rec.FailedSessionRatio)
	}
}

func TestContractLineKeys(t *testing.T) {
	rec := &record{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {1.5, "s", 3, "median"}}}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(contractLine(rec), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("contract line keys: %s", contractLine(rec))
	}
	if !strings.Contains(string(got["metrics"]), `"setup_s":{"value":1.5,"unit":"s"}`) {
		t.Errorf("metrics: %s", got["metrics"])
	}
}
