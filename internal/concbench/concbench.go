// Package concbench implements the paper's five coordination
// benchmarks (§4.1.2) — mutex, prodcons, condition, threadring,
// chameneos — in each of the five compared paradigms:
//
//   - "cxx": traditional shared memory (sync.Mutex / sync.Cond), the
//     C++/TBB stand-in for coordination tasks;
//   - "go": idiomatic goroutines and channels;
//   - "haskell": the STM of internal/stm, with retry for waiting;
//   - "erlang": the actor runtime of internal/actor with deep-copied
//     messages and server actors;
//   - "Qs": the SCOOP/Qs runtime of internal/core with separate
//     blocks, queries, and wait conditions. The Qs variants accept a
//     core.Config so the optimization ablation (Table 2 / Fig. 17)
//     runs the same programs under all five configurations.
//
// Every variant of a benchmark computes the same checkable result
// (e.g. final counter value, total meeting count), which the tests
// assert, so the paradigms are compared on identical work.
package concbench

import (
	"fmt"

	"scoopqs/internal/core"
)

// Params are the benchmark sizes, mirroring the paper's n (threads per
// group), m (iterations), nt (token passes), and nc (meetings), plus
// the conventional ring size and creature count.
type Params struct {
	N         int // threads per group (paper: 32)
	M         int // iterations per thread (paper: 20,000)
	NT        int // threadring token passes (paper: 600,000)
	NC        int // chameneos meetings (paper: 5,000,000)
	Ring      int // threadring ring size (CLBG convention: 503)
	Creatures int // chameneos creature count (CLBG convention: 4)
}

// SmallParams is the laptop-scale default, sized so the slower
// configurations take tenths of seconds (measurable, not painful).
func SmallParams() Params {
	return Params{N: 8, M: 1500, NT: 40000, NC: 25000, Ring: 128, Creatures: 4}
}

// BenchParams is an even smaller configuration for testing.B loops.
func BenchParams() Params {
	return Params{N: 2, M: 100, NT: 1200, NC: 500, Ring: 32, Creatures: 4}
}

// PaperParams are the paper's §4.1 sizes.
func PaperParams() Params {
	return Params{N: 32, M: 20000, NT: 600000, NC: 5000000, Ring: 503, Creatures: 4}
}

// Names lists the benchmarks in the paper's presentation order.
var Names = []string{"chameneos", "condition", "mutex", "prodcons", "threadring"}

// Langs lists the compared paradigms in the paper's presentation order.
var Langs = []string{"cxx", "erlang", "go", "haskell", "Qs"}

// GuardNames lists the guard-heavy workloads built on SeparateWhen —
// the bounded buffer and the Santa Claus problem. They are Qs-only
// (no cross-paradigm variants), so they live outside Names and the
// all-langs sweeps; RunGuard executes them.
var GuardNames = []string{"boundedbuf", "santa"}

// RunGuard executes one guard-heavy Qs workload under cfg, returning
// the workload runtime's final stats snapshot (guard retries,
// multi-reservations) alongside the self-check result.
func RunGuard(bench string, cfg core.Config, p Params) (core.Stats, error) {
	switch bench {
	case "boundedbuf":
		return BoundedBufQs(cfg, p)
	case "santa":
		return SantaQs(cfg, p)
	}
	return core.Stats{}, fmt.Errorf("concbench: unknown guard workload %q", bench)
}

// Run executes one benchmark under one paradigm. cfg is only used by
// the "Qs" paradigm. It returns an error for unknown names or if the
// benchmark's self-check fails.
func Run(bench, lang string, cfg core.Config, p Params) error {
	type key struct{ b, l string }
	table := map[key]func(core.Config, Params) error{
		{"mutex", "cxx"}:          func(_ core.Config, p Params) error { return MutexCxx(p) },
		{"mutex", "go"}:           func(_ core.Config, p Params) error { return MutexGo(p) },
		{"mutex", "haskell"}:      func(_ core.Config, p Params) error { return MutexStm(p) },
		{"mutex", "erlang"}:       func(_ core.Config, p Params) error { return MutexActor(p) },
		{"mutex", "Qs"}:           MutexQs,
		{"prodcons", "cxx"}:       func(_ core.Config, p Params) error { return ProdConsCxx(p) },
		{"prodcons", "go"}:        func(_ core.Config, p Params) error { return ProdConsGo(p) },
		{"prodcons", "haskell"}:   func(_ core.Config, p Params) error { return ProdConsStm(p) },
		{"prodcons", "erlang"}:    func(_ core.Config, p Params) error { return ProdConsActor(p) },
		{"prodcons", "Qs"}:        ProdConsQs,
		{"condition", "cxx"}:      func(_ core.Config, p Params) error { return ConditionCxx(p) },
		{"condition", "go"}:       func(_ core.Config, p Params) error { return ConditionGo(p) },
		{"condition", "haskell"}:  func(_ core.Config, p Params) error { return ConditionStm(p) },
		{"condition", "erlang"}:   func(_ core.Config, p Params) error { return ConditionActor(p) },
		{"condition", "Qs"}:       ConditionQs,
		{"threadring", "cxx"}:     func(_ core.Config, p Params) error { return ThreadRingCxx(p) },
		{"threadring", "go"}:      func(_ core.Config, p Params) error { return ThreadRingGo(p) },
		{"threadring", "haskell"}: func(_ core.Config, p Params) error { return ThreadRingStm(p) },
		{"threadring", "erlang"}:  func(_ core.Config, p Params) error { return ThreadRingActor(p) },
		{"threadring", "Qs"}:      ThreadRingQs,
		{"chameneos", "cxx"}:      func(_ core.Config, p Params) error { return ChameneosCxx(p) },
		{"chameneos", "go"}:       func(_ core.Config, p Params) error { return ChameneosGo(p) },
		{"chameneos", "haskell"}:  func(_ core.Config, p Params) error { return ChameneosStm(p) },
		{"chameneos", "erlang"}:   func(_ core.Config, p Params) error { return ChameneosActor(p) },
		{"chameneos", "Qs"}:       ChameneosQs,
	}
	f, ok := table[key{bench, lang}]
	if !ok {
		return fmt.Errorf("concbench: unknown benchmark/lang %q/%q", bench, lang)
	}
	return f(cfg, p)
}

// Colour is a chameneos colour.
type Colour uint8

// The three chameneos colours.
const (
	Blue Colour = iota
	Red
	Yellow
)

// Complement returns the colour a creature changes to after meeting a
// partner: unchanged if both share a colour, otherwise the third one.
func Complement(a, b Colour) Colour {
	if a == b {
		return a
	}
	return Colour(3 - int(a) - int(b))
}

// startColours assigns initial creature colours round-robin.
func startColours(n int) []Colour {
	cs := make([]Colour, n)
	for i := range cs {
		cs[i] = Colour(i % 3)
	}
	return cs
}

// checkCount verifies a benchmark's self-check value.
func checkCount(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("concbench: %s = %d, want %d", what, got, want)
	}
	return nil
}
