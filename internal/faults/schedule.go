package faults

import (
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Schedule decides which fault (if any) applies to the i-th HTTP call.
// Implementations must be deterministic: the same index always yields
// the same fault, regardless of call order or wall-clock time.
type Schedule interface {
	FaultFor(call int) Fault
}

// Profile is a named mix of fault probabilities. Weights are relative;
// whatever probability mass (out of Total) they do not claim passes
// through clean.
type Profile struct {
	Name string
	// Weight per kind, out of Total. Kinds absent inject never.
	Weights map[Kind]int
	// Total is the denominator; calls landing outside the summed
	// weights are clean. Zero means "sum of weights" (every call
	// faulted) — almost never what a soak wants.
	Total int
	// MaxLatency bounds injected latency (default 2s).
	MaxLatency time.Duration
	// BurstLen, when > 1, correlates faults in blocks of that many
	// consecutive calls: the whole block draws one fault decision.
	// Real database outages are sustained windows, not i.i.d. coin
	// flips per request — and only sustained windows can outlast a
	// lease and force the vacate fail-safe.
	BurstLen int
}

// Built-in profiles, selectable by name from the -chaos-profile flag.
var profiles = map[string]Profile{
	// mild: occasional glitches a healthy WAN shows. ~10% of calls.
	"mild": {
		Name: "mild",
		Weights: map[Kind]int{
			Latency: 4, Drop: 2, ServerError: 2, MalformedJSON: 1, Truncate: 1,
		},
		Total:      100,
		MaxLatency: 500 * time.Millisecond,
	},
	// heavy: a database having a bad day. ~45% of calls, all kinds.
	"heavy": {
		Name: "heavy",
		Weights: map[Kind]int{
			Latency: 10, Drop: 10, ServerError: 15, MalformedJSON: 4, Truncate: 4, ClockSkew: 2,
		},
		Total:      100,
		MaxLatency: 2 * time.Second,
	},
	// outage: sustained windows of hard failure — whole 40-call bursts
	// go dark at once, so outages outlast leases and exercise the
	// vacate budget hardest.
	"outage": {
		Name: "outage",
		Weights: map[Kind]int{
			ServerError: 35, Drop: 10,
		},
		Total:      100,
		MaxLatency: time.Second,
		BurstLen:   40,
	},
}

// ProfileByName returns a built-in profile ("mild", "heavy", "outage").
// The empty string and "off" return ok=false.
func ProfileByName(name string) (Profile, bool) {
	p, ok := profiles[strings.ToLower(name)]
	return p, ok
}

// ProfileNames lists the built-in profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Seeded is a deterministic pseudo-random schedule drawn from a
// profile. Each call index derives its own PRNG from (seed, call), so
// FaultFor is a pure function: retries, concurrency and partial
// replays all see the same faults.
type Seeded struct {
	Profile Profile
	Seed    int64
}

// NewSeeded returns a seeded schedule over the given profile.
func NewSeeded(p Profile, seed int64) *Seeded { return &Seeded{Profile: p, Seed: seed} }

// FaultFor implements Schedule.
func (s *Seeded) FaultFor(call int) Fault {
	// With bursts, every call in a block shares one decision.
	idx := call
	if s.Profile.BurstLen > 1 {
		idx = call / s.Profile.BurstLen
	}
	// splitmix-style mix of seed and call index; rand.NewSource on the
	// mixed value gives a decorrelated stream per call.
	h := uint64(s.Seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	rng := rand.New(rand.NewSource(int64(h)))

	total := s.Profile.Total
	sum := 0
	// Deterministic kind order: iterate the enum, not the map.
	kinds := []Kind{Latency, Drop, ServerError, MalformedJSON, Truncate, ClockSkew}
	for _, k := range kinds {
		sum += s.Profile.Weights[k]
	}
	if total == 0 {
		total = sum
	}
	if total == 0 {
		return Fault{Kind: None}
	}
	roll := rng.Intn(total)
	for _, k := range kinds {
		w := s.Profile.Weights[k]
		if roll < w {
			return s.materialize(k, rng)
		}
		roll -= w
	}
	return Fault{Kind: None}
}

func (s *Seeded) materialize(k Kind, rng *rand.Rand) Fault {
	switch k {
	case Latency:
		max := s.Profile.MaxLatency
		if max <= 0 {
			max = 2 * time.Second
		}
		// At least 1ms so the fault is observable.
		d := time.Millisecond + time.Duration(rng.Int63n(int64(max)))
		if d > max {
			d = max
		}
		return Fault{Kind: Latency, Delay: d}
	case ServerError:
		statuses := []int{500, 502, 503, 504}
		return Fault{Kind: ServerError, Status: statuses[rng.Intn(len(statuses))]}
	default:
		return Fault{Kind: k}
	}
}
