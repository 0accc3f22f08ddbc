package chaos

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/trace"
)

// FromSeed derives one matrix cell: the seed's low bits switch the
// crash / storm / failover / skew axes on a copy of base, so the
// matrix covers all 16 combinations every 16 seeds (brownouts ride
// along whenever crashes or storms are on, so calm cells stay calm).
func FromSeed(seed int64, base Config) Config {
	cfg := base
	cfg.Seed = seed
	cfg.Crashes = seed&1 != 0
	cfg.Storms = seed&2 != 0
	cfg.Failover = seed&4 != 0
	if seed&8 == 0 {
		cfg.MaxSkew = 0
	}
	cfg.Brownouts = cfg.Crashes || cfg.Storms
	return cfg
}

type capture struct {
	recs []trace.Record
}

func (c *capture) Record(r trace.Record) { c.recs = append(c.recs, r) }

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestChaosMatrix is the acceptance soak: seeded chaos worlds across
// the crash/restart × incumbent-storm × DB-failover × clock-skew
// matrix (the seed's low bits cover all 16 cells every 16 seeds), the
// online invariant watchdog attached to every one, zero violations.
//
// Scale knobs (for `make chaos-soak`):
//
//	CHAOS_WORLD_SEEDS — number of worlds (default 48; soak uses 100)
//	CHAOS_WORLD_STEPS — virtual seconds per world (default 240)
func TestChaosMatrix(t *testing.T) {
	seeds := envInt("CHAOS_WORLD_SEEDS", 48)
	steps := envInt("CHAOS_WORLD_STEPS", 240)
	if testing.Short() {
		seeds = 16
	}
	base := Config{Steps: steps, MaxSkew: 2 * time.Second}
	var agg Result
	for seed := 0; seed < seeds; seed++ {
		cfg := FromSeed(int64(seed), base)
		res, err := Run(cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: harness: %v", seed, err)
		}
		if res.First != nil {
			t.Fatalf("seed %d: invariant violation: %v (of %d)", seed, res.First, res.Violations)
		}
		if res.TxRecords == 0 {
			t.Fatalf("seed %d: world never transmitted; nothing was verified", seed)
		}
		if cfg.Crashes && res.Crashes == 0 {
			t.Errorf("seed %d: crash axis on but no crash scheduled", seed)
		}
		if cfg.Storms && res.StormArrivals == 0 {
			t.Errorf("seed %d: storm axis on but no storm scheduled", seed)
		}
		agg.TxRecords += res.TxRecords
		agg.Contacts += res.Contacts
		agg.Crashes += res.Crashes
		agg.Restarts += res.Restarts
		agg.StormArrivals += res.StormArrivals
		agg.StormDeparts += res.StormDeparts
		agg.Failovers += res.Failovers
		agg.Vacates += res.Vacates
		agg.SkewedAPs += res.SkewedAPs
		agg.Records += res.Records
	}
	// The matrix must exercise every axis somewhere — a fleet that
	// never crashed, stormed, failed over or skewed proves nothing.
	if agg.Crashes == 0 || agg.Restarts == 0 {
		t.Errorf("matrix never exercised crash/restart: %+v", agg)
	}
	if agg.StormArrivals == 0 || agg.StormDeparts == 0 {
		t.Errorf("matrix never exercised incumbent storms: %+v", agg)
	}
	if agg.Failovers == 0 {
		t.Errorf("matrix never exercised DB failover: %+v", agg)
	}
	if agg.SkewedAPs == 0 {
		t.Errorf("matrix never exercised clock skew: %+v", agg)
	}
	if agg.Vacates == 0 {
		t.Errorf("matrix never forced a vacate: %+v", agg)
	}
	if agg.Contacts == 0 || agg.Records == 0 {
		t.Fatalf("matrix was vacuous: %+v", agg)
	}
	t.Logf("matrix: %d worlds, tx=%d contacts=%d crashes=%d restarts=%d storms=%d/%d failovers=%d vacates=%d records=%d",
		seeds, agg.TxRecords, agg.Contacts, agg.Crashes, agg.Restarts,
		agg.StormArrivals, agg.StormDeparts, agg.Failovers, agg.Vacates, agg.Records)
}

// TestWatchdogIgnoresHealthyFleetUnderSameOutage: both database
// endpoints dead for well over the ETSI minute, and the fleet vacates
// cleanly with zero violations. The vacate-gate mutant in
// mutants_test.go (the radio stays on, the lost-contact vacate never
// fires) must make this test fail with tx-past-vacate-budget, which is
// what proves the watchdog is not vacuously green.
func TestWatchdogIgnoresHealthyFleetUnderSameOutage(t *testing.T) {
	outage := []faults.Window{{From: 60 * time.Second, To: 220 * time.Second}}
	cfg := Config{
		Seed:           1,
		APs:            3,
		Steps:          260,
		PrimaryOutages: outage,
		ReplicaOutages: outage,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.First != nil {
		t.Fatalf("healthy fleet flagged: %v", res.First)
	}
	if res.Vacates == 0 {
		t.Fatalf("outage did not force vacates: %+v", res)
	}
	if res.TxRecords == 0 {
		t.Fatalf("fleet never transmitted: %+v", res)
	}
}

// TestChaosDeterminism: the same seed yields the byte-identical
// result, including the trace stream the watchdog consumed.
func TestChaosDeterminism(t *testing.T) {
	cfg := FromSeed(7, Config{Steps: 200, MaxSkew: 2 * time.Second})
	var a, b capture
	ra, err := Run(cfg, &a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(cfg, &b)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(ra)
	jb, _ := json.Marshal(rb)
	if string(ja) != string(jb) {
		t.Fatalf("results diverged:\n--- A\n%s\n--- B\n%s", ja, jb)
	}
	if len(a.recs) != len(b.recs) {
		t.Fatalf("stream lengths diverged: %d vs %d", len(a.recs), len(b.recs))
	}
	for i := range a.recs {
		if a.recs[i] != b.recs[i] {
			t.Fatalf("stream diverged at record %d: %v vs %v", i, a.recs[i], b.recs[i])
		}
	}
	if len(a.recs) == 0 {
		t.Fatal("world emitted no records")
	}
}
