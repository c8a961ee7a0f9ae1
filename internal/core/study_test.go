package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewStudyDefaultsToPaperConfig(t *testing.T) {
	s := NewStudy()
	if s.Config() != PaperStudy() {
		t.Fatalf("default config %+v", s.Config())
	}
}

func TestStudyOptions(t *testing.T) {
	s := NewStudy(WithSeed(99), WithCohortSize(60), WithCalibration(false))
	cfg := s.Config()
	if cfg.Seed != 99 || cfg.Calibrate {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if cfg.Cohort.NStudents != 60 || cfg.Cohort.NFemale != 12 || cfg.Cohort.Section1Females != 6 {
		t.Fatalf("cohort derivation wrong: %+v", cfg.Cohort)
	}
	base := PaperStudy()
	base.Seed = 7
	if got := NewStudy(WithConfig(base)).Config(); got != base {
		t.Fatalf("WithConfig lost fields: %+v", got)
	}
}

func TestWithCohortSizeRejectsDegenerateSizes(t *testing.T) {
	// The old CLI derivation silently produced zero females for small
	// cohorts (8/10 = 0 section-1 females); the option must refuse.
	for _, n := range []int{8, 9, 15, -4, 0, 2} {
		_, err := NewStudy(WithCohortSize(n)).Run(context.Background())
		if err == nil {
			t.Errorf("cohort size %d accepted", n)
		} else if !strings.Contains(err.Error(), "cohort size") {
			t.Errorf("cohort size %d: unexpected error %v", n, err)
		}
	}
	// The smallest valid size really runs.
	o, err := NewStudy(WithCohortSize(10), WithCalibration(false)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Cohort.Students) != 10 {
		t.Fatalf("%d students", len(o.Cohort.Students))
	}
	if _, f := o.Cohort.CountGender(); f == 0 {
		t.Fatal("valid small cohort still has zero females")
	}
}

func TestStudyRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewStudy().Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStageObserverSeesWholePipeline(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]time.Duration{}
	_, err := NewStudy(
		WithCalibration(false),
		WithStageObserver(func(stage string, d time.Duration) {
			mu.Lock()
			seen[stage] += d
			mu.Unlock()
		}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range Stages {
		if _, ok := seen[stage]; !ok {
			t.Errorf("stage %q never observed", stage)
		}
	}
	if len(seen) != len(Stages) {
		t.Fatalf("observed %d stages, want %d: %v", len(seen), len(Stages), seen)
	}
}

func TestSharedSeedIndependentState(t *testing.T) {
	// Two studies share the process-wide instrument: the cache must
	// hand back the identical object, not a rebuild.
	a, err := NewStudy(WithCalibration(false)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(WithCalibration(false), WithSeed(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Instrument != b.Instrument {
		t.Fatal("instrument rebuilt per run instead of shared")
	}
}
