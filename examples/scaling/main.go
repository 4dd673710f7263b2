// Scaling: the architect-side use case from the paper's Section 7.
//
// How does latency tolerance survive growing the machine from 2×2 to 10×10
// PEs? The answer depends overwhelmingly on the data distribution: a
// geometric (local-heavy) remote access pattern keeps d_avg bounded and
// throughput near-linear, while a uniform pattern drags every access across
// the machine and collapses. The example also shows the paper's
// memory-contention-relief effect: against an *ideal* (zero-delay) network,
// the finite network's switches act as a pipeline that spaces out remote
// accesses and lowers the observed memory latency.
package main

import (
	"fmt"
	"log"

	"lattol/internal/mms"
	"lattol/internal/report"
)

func main() {
	log.SetFlags(0)

	t := report.NewTable(
		"Scaling a multithreaded machine (n_t=8, R=10, L=S=10, p_remote=0.2)",
		"P", "pattern", "d_avg", "U_p", "P·U_p", "S_obs", "L_obs", "L_obs ideal-IN")
	for _, k := range []int{2, 4, 6, 8, 10} {
		for _, uniform := range []bool{false, true} {
			cfg := mms.DefaultConfig()
			cfg.K = k
			cfg.Uniform = uniform
			name := "geometric"
			if uniform {
				name = "uniform"
			}
			model, err := mms.Build(cfg)
			if err != nil {
				log.Fatal(err)
			}
			met, err := model.Solve(mms.SolveOptions{})
			if err != nil {
				log.Fatal(err)
			}
			idealCfg := cfg
			idealCfg.SwitchTime = 0
			ideal, err := mms.Solve(idealCfg)
			if err != nil {
				log.Fatal(err)
			}
			p := k * k
			t.Add(
				fmt.Sprintf("%d", p),
				name,
				report.Float(model.MeanDistance(), 2),
				report.Float(met.Up, 3),
				report.Float(float64(p)*met.Up, 1),
				report.Float(met.SObs, 1),
				report.Float(met.LObs, 1),
				report.Float(ideal.LObs, 1),
			)
		}
	}
	fmt.Print(t.String())
	fmt.Println()
	fmt.Println("Observations (matching the paper's Section 7):")
	fmt.Println("  * geometric: d_avg stays below 1/(1-p_sw)=2, throughput scales ~linearly;")
	fmt.Println("  * uniform: d_avg grows to ~5 and the network saturates — latency not tolerated;")
	fmt.Println("  * the finite network's L_obs sits *below* the ideal network's L_obs at scale:")
	fmt.Println("    switch delays pipeline remote accesses and relieve memory contention.")
}
