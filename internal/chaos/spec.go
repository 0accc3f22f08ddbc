package chaos

import (
	"strconv"

	"cellfi/internal/runner"
)

// Spec adapts a chaos world to a runner.Spec, making chaos scenarios
// first-class campaign members: the run's seed overrides cfg.Seed,
// the world's trace stream lands in the campaign's trace capture (and
// its invariant checker, with -invariants on), and the watchdog
// verdict fails the run.
func Spec(label string, cfg Config) runner.Spec {
	return runner.Spec{
		Label: label,
		Seed:  cfg.Seed,
		Run: func(c *runner.Ctx) (any, error) {
			run := cfg // per-call copy: the closure may be invoked more than once
			run.Seed = c.Seed()
			res, err := Run(run, c.Recorder())
			if err != nil {
				return nil, err
			}
			c.AddSteps(int64(res.Steps) * int64(res.APs))
			if verr := res.Err(); verr != nil {
				return res, verr
			}
			return res, nil
		},
	}
}

// Matrix builds the 4-axis chaos campaign the acceptance soak runs:
// one Spec per seed, with the crash / storm / failover / skew axes
// switched by the seed's low bits so the fleet covers all 16
// combinations every 16 seeds.
func Matrix(seeds int, base Config) []runner.Spec {
	specs := make([]runner.Spec, 0, seeds)
	for seed := 0; seed < seeds; seed++ {
		cfg := FromSeed(int64(seed), base)
		specs = append(specs, Spec(label(cfg), cfg))
	}
	return specs
}

// FromSeed derives one matrix cell: the seed's low bits switch the
// fault axes on a copy of base (brownouts ride along whenever crashes
// or storms are on, so calm cells stay calm).
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

func label(cfg Config) string {
	l := "chaos/seed=" + strconv.FormatInt(cfg.Seed, 10)
	if cfg.Crashes {
		l += "+crash"
	}
	if cfg.Storms {
		l += "+storm"
	}
	if cfg.Failover {
		l += "+failover"
	}
	if cfg.MaxSkew > 0 {
		l += "+skew"
	}
	return l
}
