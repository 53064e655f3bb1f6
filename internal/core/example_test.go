package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dar"
	"repro/internal/models"
)

// ExampleCTS computes the critical time scale of an LRD video source at a
// realistic ATM operating point: only the first m* frame correlations
// influence the loss rate.
func ExampleCTS() {
	z, err := models.NewZ(0.975)
	if err != nil {
		log.Fatal(err)
	}
	op := core.Operating{C: 538, B: 134.5, N: 30} // 10 ms buffer
	res, err := core.CTS(z, op, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m* = %d frames\n", res.M)
	// Output:
	// m* = 29 frames
}

// ExampleBahadurRao estimates the buffer overflow probability of a Markov
// video model.
func ExampleBahadurRao() {
	p, err := dar.NewDAR1(0.82, dar.GaussianMarginal(500, 5000))
	if err != nil {
		log.Fatal(err)
	}
	op := core.Operating{C: 538, B: 26.9, N: 30} // 2 ms buffer
	bop, err := core.BahadurRao(p, op, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(W > B) ≈ %.1e\n", bop)
	// Output:
	// P(W > B) ≈ 5.4e-05
}
