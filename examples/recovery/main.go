// Recovery walkthrough: run a simulation with trace recording, crash one
// host at the horizon, build each protocol's recovery line, and measure
// the rollback — including the domino effect on the uncoordinated
// baseline. This is the paper's §6 "future work" made concrete.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
	"mobickpt/internal/storage"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Horizon = 10000
	cfg.Workload.PSwitch = 0.8
	cfg.Protocols = []sim.ProtocolName{sim.TP, sim.BCS, sim.QBC, sim.UNC}
	cfg.RecordTrace = true // recovery analysis needs the message history

	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	n := cfg.Mobile.NumHosts
	fmt.Printf("a host crashes at t=%.0f; worst case over all crash sites:\n\n",
		float64(cfg.Horizon))

	tab := stats.NewTable("", "protocol", "hosts rolled back", "undone time", "undone msgs", "domino steps")
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		var worst recovery.Metrics
		for f := 0; f < n; f++ {
			failed := mobile.HostID(f)

			// Seed the rollback with the protocol's own on-the-fly line...
			seedCut := sim.SeedCut(pr, n, failed)
			// ...then eliminate any remaining orphans (zero steps for the
			// index protocols; a cascade for the uncoordinated baseline).
			cut, steps := recovery.Propagate(pr.Trace, seedCut)
			if recovery.Orphans(pr.Trace, cut) != 0 {
				log.Fatalf("%s: inconsistent cut", pr.Name)
			}
			m := recovery.Measure(pr.Trace, cut,
				func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) },
				cfg.Horizon, steps)
			if m.UndoneTime > worst.UndoneTime {
				worst = m
			}
		}
		tab.AddRow(string(pr.Name),
			fmt.Sprint(worst.RolledBackHosts),
			fmt.Sprintf("%.0f", float64(worst.UndoneTime)),
			fmt.Sprint(worst.UndoneMessages),
			fmt.Sprint(worst.DominoSteps))
	}
	fmt.Print(tab)

	fmt.Println("\nthe communication-induced protocols recover from their on-the-fly")
	fmt.Println("lines with zero extra propagation; the uncoordinated baseline")
	fmt.Println("cascades (domino effect), often all the way to the initial states.")
}
