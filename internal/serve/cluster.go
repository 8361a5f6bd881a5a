package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ormprof/internal/govern"
)

// Cluster is the all-in-one deployment: N shard Servers plus a router
// tier, every piece in this process. It exists for two consumers — `ormpd
// -cluster -local-shards N`, which wants horizontal ingest scaling
// without multi-host operations, and the fault soaks, which need to kill
// and restart individual tiers mid-stream and then prove the merged
// result byte-identical to a single-node run. The multi-host deployment
// is the same pieces without this wrapper: standalone `ormpd` per shard,
// `ormpd -cluster -shards ...` for the router, `ormpd -merge` for the
// report.
//
// Reconfiguration: AddShard and RemoveShard change the ring without
// draining anything. The orchestration for each moved session is
//
//	Hold (router refuses its reconnects) → ring install (epoch CAS) →
//	Handoff (source extracts durable state) → Adopt (destination
//	validates and durably checkpoints it) → Forget (source drops its
//	copy) → Repoint (router pins the new owner) → Release
//
// so at every instant the session has at least one durable home and the
// routing plane knows which one it is. The same methods back the admin
// plane: `ormpd -ctl add-shard/remove-shard` lands on the active
// router's admin listener, whose OnAddShard/OnRemoveShard hooks point
// here.
//
// Governance composes across tiers: ClusterMemBudget is a parent
// govern.Budget over every shard's accounting root, and when the summed
// footprint crosses its watermark the heaviest shard — govern.Heaviest
// over the per-shard accounted bytes, ties to the lowest shard index —
// is told to shed via its OverBudget hook. Inside that shard the
// existing heaviest-session machinery picks the victim, so "which
// session in which shard degrades" is deterministic at both tiers.
type ClusterConfig struct {
	// Dir is the cluster's root directory (required). Each shard i keeps
	// its durable state under Dir/shard<i>/{ckpt,out,final}; router i's
	// state table is Dir/router<i>.rtab.
	Dir string
	// Shards is the local shard count. Default 2.
	Shards int
	// Shard is the per-shard Config template. CheckpointDir, OutputDir,
	// FinalDir, Resume, ParentBudget, and OverBudget are derived per
	// shard and overwritten.
	Shard Config
	// Router is the RouterConfig template. Shards, StatePath, Standby,
	// ActiveAddr, Peers, and the admin hooks are derived and overwritten.
	Router RouterConfig
	// RouterListen is router 0's listen address. Default 127.0.0.1:0
	// (an ephemeral port, read back via Addr). Additional routers always
	// take ephemeral ports.
	RouterListen string
	// AdminListen is router 0's admin listen address. Default
	// 127.0.0.1:0; read back via AdminAddr.
	AdminListen string
	// Routers is the total router count: one active plus Routers-1
	// standbys replicating its table. Default 1.
	Routers int
	// ClusterMemBudget bounds the accounted profiling footprint summed
	// across every shard (0 = unlimited).
	ClusterMemBudget int64
	// MigrateHook, when set, is called at each stage of every session
	// migration ("held", "handoff", "adopted", "repointed") — the fault
	// soaks' window into the dance.
	MigrateHook func(stage, session string)
	// Logf, when set, receives cluster lifecycle lines.
	Logf func(format string, args ...any)
}

// clusterShard is one shard slot: the address is fixed for the cluster's
// lifetime (the ring hashes it), the server behind it comes and goes. A
// removed slot keeps its directories — its completed sessions' final
// states still feed the merge — but never serves again.
type clusterShard struct {
	addr    string
	srv     *Server
	ln      net.Listener
	done    chan struct{} // closed when this server's Serve returns
	removed bool
}

// clusterRouter is one router slot. Every router carries both listeners:
// ingest (spliced ORMP/1) and admin (ORMA/1 — topology commands on the
// active, replication intake on standbys).
type clusterRouter struct {
	addr      string
	adminAddr string
	r         *Router
	ln        net.Listener
	adminLn   net.Listener
	done      chan struct{}
	adminDone chan struct{}
}

// Cluster runs the shards and routers. All methods are safe to call from
// test goroutines; the Kill/Restart/Promote trio and AddShard/RemoveShard
// are the fault and reconfiguration hooks.
type Cluster struct {
	cfg    ClusterConfig
	budget *govern.Budget
	shards []*clusterShard

	routers []*clusterRouter
	active  int // index of the active router
}

// NewCluster builds and starts a cluster: every shard listening, router 0
// active, any further routers standing by. The returned cluster is
// serving; callers push through Addr().
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: cluster Dir is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Routers <= 0 {
		cfg.Routers = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Cluster{
		cfg:     cfg,
		budget:  govern.NewBudget(cfg.ClusterMemBudget),
		shards:  make([]*clusterShard, cfg.Shards),
		routers: make([]*clusterRouter, cfg.Routers),
	}
	for i := range c.shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.teardown()
			return nil, fmt.Errorf("serve: cluster shard %d: %w", i, err)
		}
		c.shards[i] = &clusterShard{addr: ln.Addr().String()}
		if err := c.startShard(i, ln, false); err != nil {
			c.teardown()
			return nil, err
		}
	}
	// Open every router's listeners first: peer lists name admin
	// addresses, so the addresses must exist before any router starts.
	if cfg.RouterListen == "" {
		cfg.RouterListen = "127.0.0.1:0"
	}
	if cfg.AdminListen == "" {
		cfg.AdminListen = "127.0.0.1:0"
	}
	c.cfg.RouterListen = cfg.RouterListen
	for i := range c.routers {
		ingest, admin := "127.0.0.1:0", "127.0.0.1:0"
		if i == 0 {
			ingest, admin = cfg.RouterListen, cfg.AdminListen
		}
		ln, err := net.Listen("tcp", ingest)
		if err != nil {
			c.teardown()
			return nil, fmt.Errorf("serve: cluster router %d: %w", i, err)
		}
		aln, err := net.Listen("tcp", admin)
		if err != nil {
			ln.Close()
			c.teardown()
			return nil, fmt.Errorf("serve: cluster router %d admin: %w", i, err)
		}
		c.routers[i] = &clusterRouter{
			addr:      ln.Addr().String(),
			adminAddr: aln.Addr().String(),
			ln:        ln,
			adminLn:   aln,
		}
	}
	// Active first (it skips the startup pull; it IS the source of
	// truth), then the standbys, each pulling the active's table as it
	// comes up.
	for i := range c.routers {
		if err := c.startRouter(i, i != 0); err != nil {
			c.teardown()
			return nil, err
		}
	}
	return c, nil
}

// teardown releases whatever NewCluster managed to start.
func (c *Cluster) teardown() {
	for _, sh := range c.shards {
		if sh != nil && sh.srv != nil {
			sh.srv.Kill()
			<-sh.done
		}
	}
	for _, rt := range c.routers {
		if rt == nil {
			continue
		}
		if rt.r != nil {
			rt.r.Kill()
			<-rt.done
			<-rt.adminDone
		} else {
			if rt.ln != nil {
				rt.ln.Close()
			}
			if rt.adminLn != nil {
				rt.adminLn.Close()
			}
		}
	}
}

// shardDirs returns shard i's durable directories.
func (c *Cluster) shardDirs(i int) (ckpt, out, final string) {
	root := filepath.Join(c.cfg.Dir, fmt.Sprintf("shard%d", i))
	return filepath.Join(root, "ckpt"), filepath.Join(root, "out"), filepath.Join(root, "final")
}

// overBudgetFor builds shard i's OverBudget hook: shed only when the
// cluster budget is over its watermark AND shard i is currently the
// heaviest — the same usage-then-lowest-index order at the shard tier
// that heavier() applies at the session tier.
func (c *Cluster) overBudgetFor(i int) func() bool {
	return func() bool {
		if !c.budget.Over() {
			return false
		}
		used := make([]int64, len(c.shards))
		for j, sh := range c.shards {
			if sh.srv != nil {
				used[j] = sh.srv.GovernedUsed()
			}
		}
		return govern.Heaviest(used) == i
	}
}

// startShard creates and serves shard i on ln. resume selects whether the
// server adopts the shard's durable checkpoints (always true on restart).
func (c *Cluster) startShard(i int, ln net.Listener, resume bool) error {
	ckpt, out, final := c.shardDirs(i)
	cfg := c.cfg.Shard
	cfg.CheckpointDir = ckpt
	cfg.OutputDir = out
	cfg.FinalDir = final
	cfg.Resume = resume
	cfg.ParentBudget = c.budget
	cfg.OverBudget = c.overBudgetFor(i)
	if cfg.Logf == nil {
		logf, n := c.cfg.Logf, i
		cfg.Logf = func(format string, args ...any) {
			logf("shard %d: "+format, append([]any{n}, args...)...)
		}
	}
	srv, err := New(ln, cfg)
	if err != nil {
		ln.Close()
		return fmt.Errorf("serve: cluster shard %d: %w", i, err)
	}
	sh := c.shards[i]
	sh.srv, sh.ln, sh.done = srv, ln, make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		if err := srv.Serve(); err != nil {
			c.cfg.Logf("shard %d: serve: %v", i, err)
		}
	}(sh.done)
	return nil
}

// startRouter creates and serves router i on its slot's listeners.
// standby selects the starting mode; the active router gets the admin
// hooks that route topology commands through the cluster's migration
// orchestrator.
func (c *Cluster) startRouter(i int, standby bool) error {
	rt := c.routers[i]
	cfg := c.cfg.Router
	cfg.Shards = c.liveShardAddrs()
	cfg.StatePath = filepath.Join(c.cfg.Dir, fmt.Sprintf("router%d.rtab", i))
	cfg.Standby = standby
	cfg.ActiveAddr = c.routers[c.active].addr
	cfg.Peers = nil
	for j, peer := range c.routers {
		if j != i {
			cfg.Peers = append(cfg.Peers, peer.adminAddr)
		}
	}
	cfg.OnAddShard = func(epoch uint64, addr string) (uint64, error) {
		return c.adminAddShard(epoch, addr)
	}
	cfg.OnRemoveShard = func(epoch uint64, addr string) (uint64, error) {
		return c.adminRemoveShard(epoch, addr)
	}
	if cfg.Logf == nil {
		logf, n := c.cfg.Logf, i
		cfg.Logf = func(format string, args ...any) {
			logf("router %d: "+format, append([]any{n}, args...)...)
		}
	}
	r, err := NewRouter(rt.ln, cfg)
	if err != nil {
		rt.ln.Close()
		rt.adminLn.Close()
		return fmt.Errorf("serve: cluster router %d: %w", i, err)
	}
	rt.r, rt.done, rt.adminDone = r, make(chan struct{}), make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		if err := r.Serve(); err != nil {
			c.cfg.Logf("router %d: serve: %v", i, err)
		}
	}(rt.done)
	go func(done chan struct{}, aln net.Listener) {
		defer close(done)
		if err := r.ServeAdmin(aln); err != nil {
			c.cfg.Logf("router %d: admin: %v", i, err)
		}
	}(rt.adminDone, rt.adminLn)
	return nil
}

// Addr is the active router's ingest address — where clients push.
func (c *Cluster) Addr() string { return c.routers[c.active].addr }

// AdminAddr is the active router's admin address — where -ctl lands.
func (c *Cluster) AdminAddr() string { return c.routers[c.active].adminAddr }

// RouterAddrs lists every router's ingest address, active first — the
// rotation list a client uses to survive router failover.
func (c *Cluster) RouterAddrs() []string {
	out := []string{c.routers[c.active].addr}
	for i, rt := range c.routers {
		if i != c.active {
			out = append(out, rt.addr)
		}
	}
	return out
}

// ShardAddrs lists the shard addresses in slot order, removed slots
// included (their addresses stay reserved).
func (c *Cluster) ShardAddrs() []string {
	out := make([]string, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.addr
	}
	return out
}

// liveShardAddrs lists the addresses of slots that have not been removed.
func (c *Cluster) liveShardAddrs() []string {
	var out []string
	for _, sh := range c.shards {
		if !sh.removed {
			out = append(out, sh.addr)
		}
	}
	return out
}

// FinalDirs lists every shard's final-state directory (merge inputs) —
// removed shards included: their completed sessions are part of the
// cluster's history.
func (c *Cluster) FinalDirs() []string {
	out := make([]string, len(c.shards))
	for i := range c.shards {
		_, _, out[i] = c.shardDirs(i)
	}
	return out
}

// Epoch returns the active router's ring epoch.
func (c *Cluster) Epoch() uint64 { return c.routers[c.active].r.Epoch() }

// activeRouter returns the active router, or nil when it is killed.
func (c *Cluster) activeRouter() *Router { return c.routers[c.active].r }

// shardByAddr finds the running slot serving addr.
func (c *Cluster) shardByAddr(addr string) *clusterShard {
	for _, sh := range c.shards {
		if sh.addr == addr && sh.srv != nil {
			return sh
		}
	}
	return nil
}

func (c *Cluster) hook(stage, session string) {
	if c.cfg.MigrateHook != nil {
		c.cfg.MigrateHook(stage, session)
	}
}

// adminAddShard backs the admin plane's add-shard on a local cluster:
// the shard address is decided here (a freshly listened local slot), so
// the operator-supplied address must be the literal "local".
func (c *Cluster) adminAddShard(epoch uint64, addr string) (uint64, error) {
	if addr != "local" {
		return 0, fmt.Errorf("serve: local cluster spawns its own shards; use add-shard local")
	}
	if _, err := c.AddShardAt(epoch); err != nil {
		return 0, err
	}
	return c.Epoch(), nil
}

// adminRemoveShard backs the admin plane's remove-shard: addr must name
// an existing shard slot.
func (c *Cluster) adminRemoveShard(epoch uint64, addr string) (uint64, error) {
	for i, sh := range c.shards {
		if sh.addr == addr {
			if err := c.RemoveShardAt(epoch, i); err != nil {
				return 0, err
			}
			return c.Epoch(), nil
		}
	}
	return 0, fmt.Errorf("serve: no shard at %s", addr)
}

// AddShard grows the cluster by one shard against the current epoch.
func (c *Cluster) AddShard() (int, error) { return c.AddShardAt(c.Epoch()) }

// AddShardAt grows the cluster by one local shard, presented against
// epoch (refused with *StaleEpochError on mismatch). The new shard slot
// starts serving, the ring advances one epoch, and every session whose
// new primary is the new shard is migrated onto it without dropping the
// cluster's other sessions. Returns the new slot index.
func (c *Cluster) AddShardAt(epoch uint64) (int, error) {
	r := c.activeRouter()
	if r == nil {
		return 0, fmt.Errorf("serve: no active router")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("serve: add shard: %w", err)
	}
	i := len(c.shards)
	sh := &clusterShard{addr: ln.Addr().String()}
	c.shards = append(c.shards, sh)
	if err := c.startShard(i, ln, false); err != nil {
		c.shards = c.shards[:i]
		return 0, err
	}

	// Who moves: exactly the sessions the new ring assigns to the new
	// shard (consistent hashing moves nothing else).
	ng, err := newRingAt(epoch+1, append(r.Shards(), sh.addr))
	if err != nil {
		c.abandonSlot(i)
		return 0, err
	}
	movers := c.moversTo(func(id string) bool { return ng.primary(id) == sh.addr })
	for id := range movers {
		r.Hold(id)
		c.hook("held", id)
	}
	if _, err := r.install(epoch, sh.addr, false); err != nil {
		for id := range movers {
			r.Release(id)
		}
		c.abandonSlot(i)
		return 0, err
	}
	merr := c.migrateAll(r, movers, sh)
	if serr := r.SyncPeers(); serr != nil && merr == nil {
		merr = serr
	}
	c.cfg.Logf("cluster: added shard %d (%s) at epoch %d, moved %d session(s)",
		i, sh.addr, ng.epoch, len(movers))
	return i, merr
}

// RemoveShard shrinks the cluster by shard slot i against the current
// epoch.
func (c *Cluster) RemoveShard(i int) error { return c.RemoveShardAt(c.Epoch(), i) }

// RemoveShardAt retires shard slot i, presented against epoch. Every
// session the shard holds — live, parked, or resumed — is migrated to
// its new ring primary first, then the empty shard drains and the slot
// is marked removed. Its final-state directory stays: completed sessions
// are history the merge still needs.
func (c *Cluster) RemoveShardAt(epoch uint64, i int) error {
	r := c.activeRouter()
	if r == nil {
		return fmt.Errorf("serve: no active router")
	}
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("serve: no shard slot %d", i)
	}
	sh := c.shards[i]
	if sh.removed {
		return fmt.Errorf("serve: shard %d is already removed", i)
	}
	if sh.srv == nil {
		return fmt.Errorf("serve: shard %d is down; restart it before removing so its sessions can migrate", i)
	}
	ng, err := r.ringWithout(epoch, sh.addr)
	if err != nil {
		return err
	}
	// Everyone on the leaving shard moves; sessions elsewhere keep their
	// primaries (consistent hashing) or their pins (installLocked).
	movers := make(map[string]*clusterShard)
	for _, id := range sh.srv.SessionIDs() {
		movers[id] = sh
	}
	for id := range movers {
		r.Hold(id)
		c.hook("held", id)
	}
	if _, err := r.install(epoch, sh.addr, true); err != nil {
		for id := range movers {
			r.Release(id)
		}
		return err
	}
	dstFor := func(id string) *clusterShard { return c.shardByAddr(ng.primary(id)) }
	merr := c.migrateAllTo(r, movers, dstFor)
	if serr := r.SyncPeers(); serr != nil && merr == nil {
		merr = serr
	}
	if merr != nil {
		// The ring moved on but some sessions still live on the leaving
		// shard; keep it serving (pins still point here) and report.
		return merr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	used := sh.srv.GovernedUsed()
	if err := sh.srv.Shutdown(ctx); err != nil {
		c.cfg.Logf("shard %d: drain on removal: %v", i, err)
	}
	<-sh.done
	if used != 0 {
		c.budget.Add(-used)
	}
	sh.srv, sh.ln = nil, nil
	sh.removed = true
	c.cfg.Logf("cluster: removed shard %d (%s) at epoch %d, moved %d session(s)",
		i, sh.addr, ng.epoch, len(movers))
	return nil
}

// ringWithout computes the prospective ring after removing addr at the
// given epoch — a pure read used to plan migrations before the install.
func (r *Router) ringWithout(epoch uint64, addr string) (*ring, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch != r.ring.epoch {
		return nil, &StaleEpochError{Have: r.ring.epoch, Got: epoch}
	}
	return r.ring.remove(addr)
}

// abandonSlot kills a just-created shard slot that never took a session.
func (c *Cluster) abandonSlot(i int) {
	sh := c.shards[i]
	if sh.srv != nil {
		sh.srv.Kill()
		<-sh.done
	}
	sh.srv, sh.ln = nil, nil
	sh.removed = true
}

// moversTo scans every running shard for sessions matching pick,
// returning session → current owner.
func (c *Cluster) moversTo(pick func(id string) bool) map[string]*clusterShard {
	out := make(map[string]*clusterShard)
	for _, sh := range c.shards {
		if sh.srv == nil {
			continue
		}
		for _, id := range sh.srv.SessionIDs() {
			if pick(id) {
				out[id] = sh
			}
		}
	}
	return out
}

// migrateAll moves every session in movers to dst, in sorted order so
// failures are reproducible. Each session is released the moment its own
// migration settles — succeed or fail, clients must not starve.
func (c *Cluster) migrateAll(r *Router, movers map[string]*clusterShard, dst *clusterShard) error {
	return c.migrateAllTo(r, movers, func(string) *clusterShard { return dst })
}

func (c *Cluster) migrateAllTo(r *Router, movers map[string]*clusterShard, dstFor func(id string) *clusterShard) error {
	ids := make([]string, 0, len(movers))
	for id := range movers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var first error
	for _, id := range ids {
		err := c.migrate(r, id, movers[id], dstFor(id))
		r.Release(id)
		if err != nil && first == nil {
			first = fmt.Errorf("serve: migrate %s: %w", id, err)
		}
	}
	return first
}

// migrate moves one held session from src to dst: Handoff → Adopt →
// Forget → Repoint. A failure before Forget aborts with the session
// intact at src (still pinned there, so nothing is lost — only the
// topology's tidiness).
func (c *Cluster) migrate(r *Router, id string, src, dst *clusterShard) error {
	if dst == nil || dst.srv == nil {
		return fmt.Errorf("destination shard is not running")
	}
	if src == dst {
		return nil
	}
	state, err := src.srv.Handoff(id)
	if errors.Is(err, errUnknownSession) {
		// The session completed, or began completing, between the movers
		// scan and its handoff: its final state is durable at src, or
		// about to be — nothing to move.
		return nil
	}
	if err != nil {
		return err
	}
	c.hook("handoff", id)
	if err := dst.srv.Adopt(state); err != nil {
		src.srv.AbortHandoff(id)
		return err
	}
	c.hook("adopted", id)
	if err := src.srv.Forget(id); err != nil {
		return err
	}
	r.Repoint(id, dst.addr)
	c.hook("repointed", id)
	c.cfg.Logf("cluster: migrated session %s: %s -> %s", id, src.addr, dst.addr)
	return nil
}

// KillShard crashes shard i: listener and connections drop, everything
// not durably checkpointed is discarded, and the shard's accounted
// footprint is returned to the cluster budget (the memory really is
// gone — the process state died with the server).
func (c *Cluster) KillShard(i int) {
	sh := c.shards[i]
	if sh.srv == nil {
		return
	}
	used := sh.srv.GovernedUsed()
	sh.srv.Kill()
	<-sh.done
	if used != 0 {
		c.budget.Add(-used)
	}
	sh.srv, sh.ln = nil, nil
	c.cfg.Logf("shard %d: killed", i)
}

// RestartShard brings shard i back on its original address, resuming
// from its durable checkpoints — the cluster analogue of a crashed
// ormpd coming back with -resume.
func (c *Cluster) RestartShard(i int) error {
	sh := c.shards[i]
	if sh.removed {
		return fmt.Errorf("serve: cluster shard %d was removed", i)
	}
	if sh.srv != nil {
		return fmt.Errorf("serve: cluster shard %d is running", i)
	}
	ln, err := net.Listen("tcp", sh.addr)
	if err != nil {
		return fmt.Errorf("serve: cluster shard %d: relisten: %w", i, err)
	}
	if err := c.startShard(i, ln, true); err != nil {
		return err
	}
	c.cfg.Logf("shard %d: restarted", i)
	return nil
}

// KillRouter crashes the active router. In-flight splices drop (clients
// see a reset and retry); shards and standby routers keep running.
func (c *Cluster) KillRouter() {
	rt := c.routers[c.active]
	if rt.r == nil {
		return
	}
	rt.r.Kill()
	<-rt.done
	<-rt.adminDone
	rt.r = nil
	c.cfg.Logf("router %d: killed", c.active)
}

// RestartRouter brings the active-slot router back on its original
// addresses. Placements survive exactly as far as the durable table made
// them: a rerouted session keeps landing on the shard that holds its
// cursor.
func (c *Cluster) RestartRouter() error {
	rt := c.routers[c.active]
	if rt.r != nil {
		return fmt.Errorf("serve: cluster router is running")
	}
	ln, err := net.Listen("tcp", rt.addr)
	if err != nil {
		return fmt.Errorf("serve: cluster router: relisten: %w", err)
	}
	aln, err := net.Listen("tcp", rt.adminAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("serve: cluster router admin: relisten: %w", err)
	}
	rt.ln, rt.adminLn = ln, aln
	if err := c.startRouter(c.active, false); err != nil {
		return err
	}
	c.cfg.Logf("router %d: restarted", c.active)
	return nil
}

// PromoteRouter fails the cluster over to the first live standby: it is
// promoted to active (serving whatever placements replication delivered)
// and becomes the target of Addr, AdminAddr, and topology commands.
func (c *Cluster) PromoteRouter() error {
	for i, rt := range c.routers {
		if i == c.active || rt.r == nil {
			continue
		}
		rt.r.Promote()
		c.active = i
		c.cfg.Logf("router %d: now active", i)
		return nil
	}
	return fmt.Errorf("serve: no live standby router to promote")
}

// Shutdown drains the cluster: routers first (no new sessions), then
// every running shard, each within what remains of ctx.
func (c *Cluster) Shutdown(ctx context.Context) error {
	var first error
	for i, rt := range c.routers {
		if rt.r == nil {
			continue
		}
		if err := rt.r.Shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("router %d: %w", i, err)
		}
		<-rt.done
		<-rt.adminDone
		rt.r = nil
	}
	for i, sh := range c.shards {
		if sh.srv == nil {
			continue
		}
		if err := sh.srv.Shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
		<-sh.done
		sh.srv = nil
	}
	return first
}

// Merge combines every shard's final session states into the cluster
// report under outDir (see ClusterReport).
func (c *Cluster) Merge(outDir string) (*ClusterStats, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: merge: %w", err)
	}
	var dirs []string
	for _, d := range c.FinalDirs() {
		if _, err := os.Stat(d); err == nil {
			dirs = append(dirs, d)
		}
	}
	return ClusterReport(dirs, outDir, c.cfg.Shard.MaxLMADs, c.cfg.Logf)
}
