package replaycmp_test

// The differential test itself (E24): run the live goroutine cluster
// with recording on, re-execute its schedule through the deterministic
// sim engine, and require byte-identical decision logs — per-host
// checkpoint sequences with kinds, indices and causes, per-delivery
// piggyback fingerprints and receive counts, and the post-hoc
// recovery-line matrices. Any disagreement means one of the two
// execution environments misimplements the protocol.

import (
	"fmt"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/protocol"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
)

func record(t *testing.T, cfg live.Config, proto string) *live.Cluster {
	t.Helper()
	cfg.Record = true
	c, err := live.NewCluster(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	return c
}

// unclocked lists the registered protocols that need no clock, in
// registry order: exactly the ones a live cluster can record.
func unclocked(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range protocol.Names() {
		p, err := protocol.Probe(name)
		if err != nil {
			t.Fatal(err)
		}
		if !protocol.Clocked(p) {
			names = append(names, name)
		}
	}
	return names
}

func replay(t *testing.T, c *live.Cluster) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{Schedule: c.Schedule(), Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tentpole gate: live and replayed decisions must be identical for
// every registered protocol a live cluster can run (every unclocked one)
// across seeds and mobility rates.
func TestDifferentialReplay(t *testing.T) {
	rates := []struct {
		name              string
		pswitch, pdisconn float64
	}{
		{"calm", 0.05, 0.02},
		{"stormy", 0.15, 0.08},
	}
	for _, proto := range unclocked(t) {
		for _, rate := range rates {
			t.Run(fmt.Sprintf("%s/%s", proto, rate.name), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= 5; seed++ {
					cfg := live.DefaultConfig()
					cfg.Seed = seed
					cfg.OpsPerHost = 200
					cfg.PSwitch = rate.pswitch
					cfg.PDisconnect = rate.pdisconn
					c := record(t, cfg, proto)
					res := replay(t, c)
					if d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule()); d != nil {
						t.Fatalf("seed %d: %v", seed, d)
					}
				}
			})
		}
	}
}

// Dynamic joins ride the schedule too.
func TestDifferentialReplayWithJoins(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 200
	cfg.Joins = 4
	c := record(t, cfg, "QBC")
	res := replay(t, c)
	if d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule()); d != nil {
		t.Fatal(d)
	}
	if res.FinalHosts != cfg.Hosts+cfg.Joins {
		t.Fatalf("replay ends with %d hosts, want %d", res.FinalHosts, cfg.Hosts+cfg.Joins)
	}
}

// The gate must be able to fail: perturbing a single replayed decision
// has to surface as a divergence at exactly that decision. A differ
// that cannot reject anything verifies nothing.
func TestDifferentialReplayDetectsPerturbation(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 200
	c := record(t, cfg, "QBC")
	res := replay(t, c)
	if d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule()); d != nil {
		t.Fatal(d)
	}
	if !replaycmp.Perturb(res.Decisions, 42) {
		t.Fatal("perturbation refused")
	}
	d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule())
	if d == nil {
		t.Fatal("perturbed replay still compares equal — the gate cannot fail")
	}
	if d.Field != "checkpoint" {
		t.Fatalf("divergence field %q, want checkpoint", d.Field)
	}
	if d.Context == nil {
		t.Fatal("divergence report lacks vector-clock context")
	}
}
