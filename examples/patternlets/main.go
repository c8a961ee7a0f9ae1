// Patternlets: the guided tour of every Assignment 2-4 program, in
// course order, on a four-thread team — what a student team saw when
// they ran the patternlet collection on their Pi.
package main

import (
	"fmt"
	"log"
	"os"

	"pblparallel/internal/omp"
	"pblparallel/internal/patternlets"
	"pblparallel/internal/pisim"
)

func main() {
	const threads = 4 // the Pi 3 B+ has four cores

	for _, p := range patternlets.Registry() {
		fmt.Printf("=== assignment %d / %s: %s ===\n", p.Assignment, p.Name, p.Summary)
		if err := p.Demo(os.Stdout, threads); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	// The scheduling lesson in virtual time: why dynamic wins when
	// iteration costs are skewed but loses to coarser chunks when they
	// are uniform.
	m, err := pisim.NewMachine(pisim.PaperPi3B())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== scheduling on the simulated Pi (virtual cycles) ===")
	skewed := pisim.SkewedCosts(240, 200, 40)
	uniform := pisim.UniformCosts(240, 5000)
	for _, pol := range []omp.Schedule{
		omp.Static{},
		omp.StaticChunk{Chunk: 1},
		omp.Dynamic{Chunk: 1},
		omp.Dynamic{Chunk: 3},
		omp.Guided{MinChunk: 1},
	} {
		rs, err := m.RunLoop(skewed, pol)
		if err != nil {
			log.Fatal(err)
		}
		ru, err := m.RunLoop(uniform, pol)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s skewed: %7d cycles (imbalance %.2f)   uniform: %8d cycles\n",
			pol.Name(), rs.Makespan, rs.LoadImbalance(), ru.Makespan)
	}
}
