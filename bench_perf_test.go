package pblparallel

// Performance benchmarks for the substrates themselves (wall time, not
// virtual time): the omp runtime's constructs, the MapReduce engine,
// the MPI runtime, the drug-design kernels, the ARM VM, and the
// end-to-end study. These complement the per-table benches in
// bench_test.go, which report reproduced quantities.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pblparallel/internal/armsim"
	"pblparallel/internal/core"
	"pblparallel/internal/drugdesign"
	"pblparallel/internal/mapreduce"
	"pblparallel/internal/mpi"
	"pblparallel/internal/omp"
	"pblparallel/internal/respond"
	"pblparallel/internal/survey"
)

func BenchmarkOMPParallelRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := omp.Parallel(func(tc *omp.ThreadContext) {}, omp.WithNumThreads(4))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOMPBarrier(b *testing.B) {
	// Cost of one barrier round on a 4-thread team, amortized over 100
	// rounds per region to isolate the barrier from fork-join.
	for i := 0; i < b.N; i++ {
		err := omp.Parallel(func(tc *omp.ThreadContext) {
			for r := 0; r < 100; r++ {
				if err := tc.Barrier(); err != nil {
					panic(err)
				}
			}
		}, omp.WithNumThreads(4))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOMPForSchedules(b *testing.B) {
	const n = 100000
	for _, sched := range []omp.Schedule{
		omp.Static{}, omp.StaticChunk{Chunk: 64},
		omp.Dynamic{Chunk: 64}, omp.Guided{MinChunk: 16},
	} {
		name := strings.ReplaceAll(fmt.Sprintf("%T", sched), "omp.", "")
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := int64(0)
				err := omp.For(0, n, sched, func(tid, i int) {
					sink += int64(i & 1)
				}, omp.WithNumThreads(4))
				if err != nil {
					b.Fatal(err)
				}
				_ = sink
			}
		})
	}
}

func BenchmarkOMPTasking(b *testing.B) {
	// Task creation + child-scoped taskwait throughput: 1000 leaf tasks
	// per region.
	for i := 0; i < b.N; i++ {
		err := omp.Parallel(func(tc *omp.ThreadContext) {
			tc.Master(func() {
				for k := 0; k < 1000; k++ {
					tc.Task(func(*omp.ThreadContext) {})
				}
			})
			tc.Taskwait()
		}, omp.WithNumThreads(4))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapReduceWordCount(b *testing.B) {
	docs := map[string]string{}
	for d := 0; d < 16; d++ {
		docs[fmt.Sprintf("doc%02d", d)] = strings.Repeat("the quick brown fox jumps over the lazy dog ", 50)
	}
	cfg := mapreduce.Config{Mappers: 4, Reducers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.Run(mapreduce.WordCount(), docs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIAllreduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			_, err := mpi.Allreduce(c, c.Rank(), func(a, x int) int { return a + x })
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIPingPong(b *testing.B) {
	// Round-trip latency of the point-to-point layer, 1000 exchanges
	// per region.
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			for k := 0; k < 1000; k++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 0, k); err != nil {
						return err
					}
					if _, _, err := c.Recv(1, 1); err != nil {
						return err
					}
				} else {
					if _, _, err := c.Recv(0, 0); err != nil {
						return err
					}
					if err := c.Send(0, 1, k); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDrugDesignScore(b *testing.B) {
	p := drugdesign.PaperProblem()
	ligand := "abcde"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = drugdesign.Score(ligand, p.Protein)
	}
}

func BenchmarkDrugDesignNative(b *testing.B) {
	p := drugdesign.PaperProblem()
	for _, variant := range []struct {
		name string
		run  func() (drugdesign.Result, error)
	}{
		{"sequential", func() (drugdesign.Result, error) { return drugdesign.RunSequential(p) }},
		{"omp4", func() (drugdesign.Result, error) { return drugdesign.RunOMP(p, 4) }},
		{"threads4", func() (drugdesign.Result, error) { return drugdesign.RunThreads(p, 4) }},
		{"mpi4", func() (drugdesign.Result, error) { return drugdesign.RunMPI(p, 4) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := variant.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkARMSimSumArray(b *testing.B) {
	prog, err := armsim.Assemble(armsim.SumArrayProgram(0, 64))
	if err != nil {
		b.Fatal(err)
	}
	m, err := armsim.NewMachine(65)
	if err != nil {
		b.Fatal(err)
	}
	for i := range m.Mem {
		m.Mem[i] = uint32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(prog, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Cycles)/float64(b.N), "vm-cycles/op")
}

func BenchmarkSurveyGeneration(b *testing.B) {
	ins := survey.NewBeyerlein()
	params, err := respond.PaperParams(ins)
	if err != nil {
		b.Fatal(err)
	}
	g, err := respond.NewGenerator(ins, params)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Generate(124, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.PaperStudy()
		cfg.Seed = int64(i + 1)
		if _, err := core.NewStudy(core.WithConfig(cfg)).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
