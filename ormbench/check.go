package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"

	"ormprof/internal/leap"
	"ormprof/internal/serve"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
)

// goldenPath holds the pinned seed-42 WHOMP and LEAP profile hashes.
const goldenPath = "testdata/seed_profiles.json"

// goldenSeed is the seed the golden hashes were generated with.
const goldenSeed = 42

// outputExts are the three artifacts a session produces.
var outputExts = []string{".whomp", ".leap", ".stride"}

// reference renders the three artifacts the offline tools produce for
// events, sequentially (workers = 1) and through the same serializations
// the daemon uses.
func reference(name string, events []trace.Event, sites map[trace.SiteID]string) (map[string][]byte, error) {
	wp, err := whomp.FromSource(name, trace.NewSliceSource(events), sites, 1)
	if err != nil {
		return nil, err
	}
	lp, err := leap.FromSource(name, trace.NewSliceSource(events), sites, 0, 1)
	if err != nil {
		return nil, err
	}
	ideal := stride.NewIdeal()
	for _, e := range events {
		ideal.Emit(e)
	}
	out := make(map[string][]byte)
	var w bytes.Buffer
	if _, err := wp.WriteTo(&w); err != nil {
		return nil, err
	}
	out[".whomp"] = append([]byte(nil), w.Bytes()...)
	w.Reset()
	if _, err := lp.WriteTo(&w); err != nil {
		return nil, err
	}
	out[".leap"] = append([]byte(nil), w.Bytes()...)
	w.Reset()
	if err := serve.WriteStrideReport(bufio.NewWriter(&w), ideal.StronglyStrided(), stride.FromLEAP(lp)); err != nil {
		return nil, err
	}
	out[".stride"] = append([]byte(nil), w.Bytes()...)
	return out, nil
}

// references computes each distinct trace's reference hashes, nproc
// traces at a time, outside the timed region. A trace whose reference
// cannot be built is a failure of the run.
func (b *bench) references(load func(*input) ([]trace.Event, error)) map[string]map[string][32]byte {
	refs := make(map[string]map[string][32]byte)
	var mu sync.Mutex
	sem := make(chan struct{}, workers())
	var wg sync.WaitGroup
	for _, in := range b.inputs {
		wg.Add(1)
		sem <- struct{}{}
		go func(in *input) {
			defer wg.Done()
			defer func() { <-sem }()
			events, err := load(in)
			if err == nil {
				var arts map[string][]byte
				if arts, err = reference(in.name, events, in.sites); err == nil {
					sums := make(map[string][32]byte)
					for ext, data := range arts {
						sums[ext] = sha256.Sum256(data)
					}
					mu.Lock()
					refs[in.name] = sums
					mu.Unlock()
					return
				}
			}
			b.failf("reference %s: %v", in.name, err)
		}(in)
	}
	wg.Wait()
	b.refs = refs
	if b.seed == goldenSeed {
		b.checkGolden(refs)
	}
	return refs
}

// checkGolden pins the seed-42 references to the committed hashes.
func (b *bench) checkGolden(refs map[string]map[string][32]byte) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		b.failf("golden: %v", err)
		return
	}
	var want map[string]struct{ Whomp, Leap string }
	if err := json.Unmarshal(data, &want); err != nil {
		b.failf("golden: %s: %v", goldenPath, err)
		return
	}
	for name, sums := range refs {
		w, ok := want[name]
		if !ok {
			b.failf("golden: %s missing from %s", name, goldenPath)
			continue
		}
		for ext, hexSum := range map[string]string{".whomp": w.Whomp, ".leap": w.Leap} {
			got := sums[ext]
			if hex.EncodeToString(got[:]) != hexSum {
				b.failf("golden: %s%s: sha256 %x, %s pins %s", name, ext, got, goldenPath, hexSum)
			}
		}
	}
}

// checkSessions compares every completed session's artifacts with its
// trace's reference and names each session and file that differs.
func (b *bench) checkSessions(refs map[string]map[string][32]byte) {
	for _, s := range b.sessions {
		if s.err != nil {
			continue
		}
		ref, ok := refs[s.in.name]
		if !ok {
			continue // the reference failure is already recorded
		}
		for _, ext := range diffArtifacts(s.sums, ref) {
			b.failf("%s: %s%s differs from the offline reference", s.id, s.in.name, ext)
		}
	}
}

// diffArtifacts lists the artifacts whose hash in got is missing or
// differs from want's.
func diffArtifacts(got, want map[string][32]byte) []string {
	var bad []string
	for _, ext := range outputExts {
		if g, ok := got[ext]; !ok || g != want[ext] {
			bad = append(bad, ext)
		}
	}
	return bad
}
