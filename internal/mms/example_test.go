package mms_test

import (
	"fmt"

	"lattol/internal/mms"
)

// Solve the paper's default system and read the headline measures.
func ExampleSolve() {
	met, err := mms.Solve(mms.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("U_p = %.3f\n", met.Up)
	fmt.Printf("S_obs = %.1f cycles\n", met.SObs)
	fmt.Printf("lambda_net = %.4f msgs/cycle\n", met.LambdaNet)
	// Output:
	// U_p = 0.819
	// S_obs = 53.9 cycles
	// lambda_net = 0.0164 msgs/cycle
}

// Concentrate 30% of remote traffic on one module and observe the collapse.
func ExampleBuildHotSpot() {
	cfg := mms.DefaultConfig()
	cfg.PRemote = 0.4
	h, err := mms.BuildHotSpot(cfg, 0, 0.3)
	if err != nil {
		panic(err)
	}
	met, err := h.Solve(mms.SolveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean U_p = %.3f (balanced would be 0.598)\n", met.MeanUp)
	fmt.Printf("hot module utilization = %.2f\n", met.MemUtilization[0])
	// Output:
	// mean U_p = 0.372 (balanced would be 0.598)
	// hot module utilization = 0.95
}
