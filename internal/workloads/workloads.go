// Package workloads provides the seven synthetic benchmark programs that
// stand in for the paper's SPEC2000 benchmarks (164.gzip, 175.vpr, 181.mcf,
// 186.crafty, 197.parser, 256.bzip2, 300.twolf).
//
// Each program mimics the dominant memory idiom of its namesake — sliding
// windows and hash probes for gzip, pointer chasing for mcf, allocation
// churn for parser, block sorting for bzip2, and so on — because the paper's
// evaluation depends on each benchmark's mixture of regular (strided,
// repeating) and irregular (hashed, data-dependent) access behaviour rather
// than on the benchmarks' outputs. All programs are deterministic given
// their seed.
package workloads

import (
	"fmt"
	"sort"

	"ormprof/internal/memsim"
)

// Config scales and seeds a workload.
type Config struct {
	// Scale multiplies the workload size; 1 is test-sized (roughly 10⁵
	// accesses per benchmark), larger values approach paper-sized runs.
	Scale int
	// Seed drives all workload-internal randomness.
	Seed int64
	// IndividualAlloc switches pool-carving workloads (197.parser) to
	// allocating each record separately — the alternative policy of the
	// paper's footnote 2 ("manually target the custom alloc/dealloc
	// functions rather than ... the standard malloc/free"). The default
	// treats custom alloc pools as single objects, as the paper chose.
	IndividualAlloc bool
}

// DefaultConfig is the test-sized configuration.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 42} }

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// Names lists the seven benchmarks in the paper's Table 1 order.
func Names() []string {
	return []string{"164.gzip", "175.vpr", "181.mcf", "186.crafty", "197.parser", "256.bzip2", "300.twolf"}
}

// New constructs the named workload.
func New(name string, cfg Config) (memsim.Program, error) {
	cfg = cfg.normalized()
	switch name {
	case "164.gzip":
		return newGzip(cfg), nil
	case "175.vpr":
		return newVPR(cfg), nil
	case "181.mcf":
		return newMCF(cfg), nil
	case "186.crafty":
		return newCrafty(cfg), nil
	case "197.parser":
		return newParser(cfg), nil
	case "256.bzip2":
		return newBzip2(cfg), nil
	case "300.twolf":
		return newTwolf(cfg), nil
	case "183.equake":
		return newEquake(cfg), nil
	case "linkedlist":
		return NewLinkedList(cfg), nil
	case "adversarial":
		return NewAdversarial(cfg), nil
	case "hotcold":
		return NewHotCold(cfg), nil
	case "chase":
		return NewChase(cfg), nil
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q (known: %v)",
			name, append(Names(), "hotcold", "chase", "183.equake", "linkedlist", "adversarial"))
	}
}

// All constructs the seven benchmarks in Table 1 order.
func All(cfg Config) []memsim.Program {
	names := Names()
	out := make([]memsim.Program, len(names))
	for i, n := range names {
		p, err := New(n, cfg)
		if err != nil {
			panic(err) // unreachable: Names() only returns known workloads
		}
		out[i] = p
	}
	return out
}

// sortedAddrs returns map keys in ascending order (deterministic frees).
func sortedAddrs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
