package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ormprof/internal/serve"
	"ormprof/internal/trace"
)

// sessionTimeout bounds one Push, so a wedged server cannot hold a run
// past its time limit.
const sessionTimeout = 120 * time.Second

// daemonExact is what ormpd does: an in-process server with the default
// configuration (checkpoint every 32 frames, fsync) plus a final-state
// directory, fed whole-trace sessions in 256-event frames.
var daemonExact = &workload{
	name:      "daemon-exact",
	start:     startServer,
	stop:      stopServer,
	clients:   runtime.NumCPU,
	session:   pushExact,
	exclusive: true,
	check:     checkExact,
	replay:    replayExactSession,
}

// clusterApprox pushes sessions through a two-shard cluster's router in
// approximate mode: every session runs on the sketch-stride rung, so no
// Sequitur runs and wire, router splice, decode and the sketches carry
// the time. The timed region ends when the merged report is written.
var clusterApprox = &workload{
	name:    "cluster-approx",
	start:   startCluster,
	stop:    stopCluster,
	clients: runtime.NumCPU,
	session: pushRouted,
	finish:  mergeCluster,
	check:   checkCluster,
	replay:  replayApproxSession,
	extra:   routerOverhead,
}

func startServer(b *bench) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := serve.New(ln, serve.Config{
		CheckpointDir: filepath.Join(b.dir, "ckpt"),
		OutputDir:     filepath.Join(b.dir, "out"),
		FinalDir:      filepath.Join(b.dir, "final"),
	})
	if err != nil {
		ln.Close()
		return err
	}
	b.srv, b.addr, b.srvDone = srv, ln.Addr().String(), make(chan error, 1)
	go func() { b.srvDone <- srv.Serve() }()
	return nil
}

func stopServer(b *bench) {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		b.failf("server shutdown: %v", err)
	}
	<-b.srvDone
	b.srv = nil
}

func push(addr string, s *session) (serve.ClientStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	return serve.Push(ctx, serve.ClientConfig{
		Addr:      addr,
		SessionID: s.id,
		Workload:  s.in.name,
		Sites:     s.in.sites,
	}, s.in.frames)
}

// pushExact pushes one session and hashes the profiles the server wrote
// for it. Sessions of one trace never overlap (exclusive), so the files
// read back are this session's.
func pushExact(b *bench, s *session) {
	b.timed(s, func() { s.stats, s.err = push(b.addr, s) })
	if s.err != nil {
		return
	}
	s.sums = make(map[string][32]byte)
	for _, ext := range outputExts {
		data, err := os.ReadFile(filepath.Join(b.dir, "out", s.in.name+ext))
		if err != nil {
			s.err = fmt.Errorf("read output: %w", err)
			return
		}
		s.sums[ext] = sha256.Sum256(data)
	}
}

func checkExact(b *bench) {
	b.checkSessions(b.references(func(in *input) ([]trace.Event, error) { return decodeFrames(in.frames) }))
}

func startCluster(b *bench) error {
	c, err := serve.NewCluster(serve.ClusterConfig{
		Dir:    filepath.Join(b.dir, "cluster"),
		Shards: 2,
		Shard:  serve.Config{Approx: true},
	})
	if err != nil {
		return err
	}
	b.cluster = c
	return nil
}

func stopCluster(b *bench) {
	if b.cluster == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.cluster.Shutdown(ctx); err != nil {
		b.failf("cluster shutdown: %v", err)
	}
	b.cluster = nil
}

func pushRouted(b *bench, s *session) {
	b.timed(s, func() { s.stats, s.err = push(b.cluster.Addr(), s) })
}

// mergeCluster writes the merged cluster report: the end of the timed
// region.
func mergeCluster(b *bench) error {
	sp := b.tr.begin("merge", -1, "")
	defer b.tr.end(sp)
	t0 := time.Now()
	st, err := b.cluster.Merge(filepath.Join(b.dir, "report"))
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	b.merge, b.mergeDur = st, time.Since(t0)
	return nil
}

// checkCluster requires the merge to hold exactly the sessions that
// completed, every one approximate, none skipped.
func checkCluster(b *bench) {
	m, n := b.merge, len(b.completed())
	if m.Sessions != n || m.Approx != m.Sessions || m.Skipped != 0 {
		b.failf("merge: %d sessions (%d approximate, %d skipped), want %d approximate, 0 skipped",
			m.Sessions, m.Approx, m.Skipped, n)
	}
}

// routerOverhead pushes the timed sessions' traces again, in the same
// order with the same client count, straight to the shards, and reports
// the median routed Push minus the median direct one.
func routerOverhead(b *bench) error {
	const maxDirect = 70
	routed := b.completed()
	if len(routed) > maxDirect {
		routed = routed[:maxDirect]
	}
	shards := b.cluster.ShardAddrs()
	direct := make([]float64, len(routed))
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for c := 0; c < b.w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(routed) {
					return
				}
				s := &session{id: fmt.Sprintf("d%04d-%s", i, routed[i].in.name), in: routed[i].in}
				sp := b.tr.begin("direct", -1, s.id)
				t0 := time.Now()
				_, err := push(shards[i%len(shards)], s)
				direct[i] = float64(time.Since(t0)) / 1e6
				b.tr.end(sp)
				if err != nil {
					b.failf("direct push %s: %v", s.id, err)
				}
			}
		}()
	}
	wg.Wait()
	via := make([]float64, len(routed))
	for i, s := range routed {
		via[i] = float64(s.dur) / 1e6
	}
	b.router = &metric{median(via) - median(direct), "ms", len(routed), "p50 routed − p50 direct"}
	return nil
}
