package eve

import (
	"testing"
)

func TestVariantsProduceCorrectResults(t *testing.T) {
	for _, v := range []string{VariantEVE, VariantEVEQs, VariantQs} {
		v := v
		t.Run(v, func(t *testing.T) {
			// Run panics on corrupted results; completing is the check.
			r := Run(v, 2000, 3, 50)
			if r.Parallel <= 0 || r.Conc <= 0 {
				t.Fatalf("%s: non-positive timings %+v", v, r)
			}
		})
	}
}

func TestConfigMapping(t *testing.T) {
	if c := Config(VariantEVE); c.QoQ || c.DynElide || c.StaticElide {
		t.Error("EVE must be the unoptimized configuration")
	}
	if c := Config(VariantEVEQs); !c.QoQ || !c.DynElide || c.StaticElide {
		t.Error("EVE/Qs must be QoQ+Dynamic without Static (§4.5)")
	}
	if c := Config(VariantQs); !c.QoQ || !c.DynElide || !c.StaticElide {
		t.Error("Qs must be the full configuration")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown variant should panic")
		}
	}()
	Config("nonesuch")
}

// The §4.5 shape: EVE/Qs beats EVE on the pull-heavy workload (their
// parallel geomean was 7.7x), and the unhandicapped Qs runtime beats
// EVE/Qs in absolute terms.
func TestEveQsFasterThanEveOnPulls(t *testing.T) {
	// Fastest of five runs per variant: the Qs vs EVE/Qs margin is a few
	// percent, below one run's scheduling noise.
	fastest := func(variant string) Results {
		best := Run(variant, 30000, 2, 30)
		for rep := 1; rep < 5; rep++ {
			if r := Run(variant, 30000, 2, 30); r.Parallel < best.Parallel {
				best = r
			}
		}
		return best
	}
	eve, eveqs, qs := fastest(VariantEVE), fastest(VariantEVEQs), fastest(VariantQs)

	if eveqs.Parallel >= eve.Parallel {
		t.Errorf("EVE/Qs (%v) not faster than EVE (%v) on the pull workload",
			eveqs.Parallel, eve.Parallel)
	}
	// Expect a large factor; be generous to CI noise (paper: 7.7x).
	if eve.Parallel < 2*eveqs.Parallel {
		t.Errorf("EVE/Qs speedup only %.2fx; expected well above 2x",
			float64(eve.Parallel)/float64(eveqs.Parallel))
	}
	if qs.Parallel >= eveqs.Parallel {
		t.Errorf("unhandicapped Qs (%v) not faster than EVE/Qs (%v); handicaps not biting",
			qs.Parallel, eveqs.Parallel)
	}
}

func TestHandlerLookupIsPerID(t *testing.T) {
	env := NewEnv(VariantEVE)
	defer env.Close()
	a := env.NewHandler("a")
	b := env.NewHandler("b")
	if env.Handler(a) == env.Handler(b) {
		t.Error("distinct ids resolved to the same handler")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown id should panic")
		}
	}()
	env.Handler(999)
}
