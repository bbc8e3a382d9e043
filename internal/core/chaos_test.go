package core

import (
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// chaosRun executes a short-window study under the aggressive fault
// profile and returns everything the determinism checks compare.
func chaosRun(t *testing.T, seed uint64, parallelism int) (*Report, string, map[string]int64, map[string]telemetry.HistogramSnapshot, *fault.Plan) {
	t.Helper()
	s := NewStudy()
	s.Parallelism = parallelism
	s.PassiveFrom = device.StudyStart
	s.PassiveTo = clock.Month{Year: 2018, Mon: 6}
	plan := fault.NewPlan(seed, fault.Profiles["aggressive"])
	s.SetFaultPlan(plan)
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("chaos RunAll(seed=%d, parallelism=%d): %v", seed, parallelism, err)
	}
	snap := s.MetricsSnapshot()
	return rep, rep.Render(s), snap.DeterministicCounters(), snap.DeterministicHistograms(), plan
}

// TestChaosMatrixDeterminism runs the fault matrix: for several seeds,
// the aggressive-profile study must complete without deadlock and
// produce byte-identical artifacts and deterministic counters at 1 and
// 8 workers.
func TestChaosMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short mode")
	}
	for _, seed := range []uint64{7, 1234} {
		_, seqRender, seqCounters, seqHists, seqPlan := chaosRun(t, seed, 1)
		_, parRender, parCounters, parHists, parPlan := chaosRun(t, seed, 8)

		if seqRender != parRender {
			t.Errorf("seed %d: renders differ between parallelism 1 and 8: %s",
				seed, firstDiff(seqRender, parRender))
		}
		for name, v := range seqCounters {
			if pv, ok := parCounters[name]; !ok || pv != v {
				t.Errorf("seed %d: counter %s = %d sequential, %d (present=%v) parallel",
					seed, name, v, pv, ok)
			}
		}
		for name := range parCounters {
			if _, ok := seqCounters[name]; !ok {
				t.Errorf("seed %d: counter %s appears only in the parallel run", seed, name)
			}
		}
		// Histograms cover span virtual durations: a handshake goroutine
		// scheduled across a clock advance would skew them, so equality
		// here proves the barriers join every in-flight handler.
		if !reflect.DeepEqual(seqHists, parHists) {
			for name, v := range seqHists {
				if pv, ok := parHists[name]; !ok || !reflect.DeepEqual(pv, v) {
					t.Errorf("seed %d: histogram %s differs between parallelism 1 and 8", seed, name)
				}
			}
			for name := range parHists {
				if _, ok := seqHists[name]; !ok {
					t.Errorf("seed %d: histogram %s appears only in the parallel run", seed, name)
				}
			}
		}
		sc, pc := seqPlan.Counts(), parPlan.Counts()
		if len(sc) == 0 {
			t.Errorf("seed %d: aggressive plan injected no faults", seed)
		}
		for kind, v := range sc {
			if pc[kind] != v {
				t.Errorf("seed %d: plan counted %s = %d sequential, %d parallel", seed, kind, v, pc[kind])
			}
		}
	}
}

// TestChaosFaultCountersMatchPlan checks the study's telemetry agrees
// with the fault plan's own tally for every injected kind.
func TestChaosFaultCountersMatchPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	_, _, counters, _, plan := chaosRun(t, 42, 4)
	for kind, v := range plan.Counts() {
		if got := counters["netem.faults."+kind]; got != v {
			t.Errorf("netem.faults.%s = %d, plan counted %d", kind, got, v)
		}
	}
}

// TestChaosAggressiveRunsDegraded checks the headline robustness
// property: under a >=20%% connection-fault plan the study never
// aborts, reports itself degraded, and the rendered report carries the
// degradation annotations.
func TestChaosAggressiveRunsDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	rep, render, _, _, plan := chaosRun(t, 7, 4)
	if rate := plan.Profile().ConnFaultRate(); rate < 0.20 {
		t.Fatalf("aggressive profile conn-fault rate %.3f, want >= 0.20", rate)
	}
	if !rep.Degraded() {
		t.Fatal("aggressive chaos run reported no degradation")
	}
	if !strings.Contains(render, "DEGRADED STUDY") {
		t.Error("render missing the degraded banner")
	}
	if !strings.Contains(render, "== Degradation log ==") {
		t.Error("render missing the degradation log")
	}
	// Core artifacts must still be present.
	for _, want := range []string{"Table 1", "Table 7", "Figure 1"} {
		if !strings.Contains(render, want) {
			t.Errorf("degraded render missing %q", want)
		}
	}
}

// internStudy renders the 40-device catalog study over the chaos
// matrix's six-month passive window, under the aggressive fault plan at
// seed 7 when faulty. Its corrupt faults flip bytes of presented
// certificate chains, so the study parses certificates no clean study
// does.
func internStudy(t *testing.T, faulty bool) string {
	t.Helper()
	s := NewStudy()
	s.PassiveFrom = device.StudyStart
	s.PassiveTo = clock.Month{Year: 2018, Mon: 6}
	if faulty {
		s.SetFaultPlan(fault.NewPlan(7, fault.Profiles["aggressive"]))
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll(faulty=%v): %v", faulty, err)
	}
	return rep.Render(s)
}

// TestChaosInternedCertsAcrossStudies checks that the process-wide
// table certs.ParseChain interns certificates in carries nothing from
// one study into the next, as `iotls serve` needs: it runs many studies
// in one process. A clean study renders the same before and after a
// fault study, and the fault study renders as it does when it is the
// first study of a fresh process.
func TestChaosInternedCertsAcrossStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	clean := internStudy(t, false)
	faulty := internStudy(t, true)
	if again := internStudy(t, false); again != clean {
		t.Errorf("clean study rendered differently after a fault study: %s", firstDiff(clean, again))
	}

	out := t.TempDir() + "/render.txt"
	cmd := exec.Command(os.Args[0], "-test.run=^TestInternedFaultStudyChild$", "-test.count=1", "-test.timeout=10m")
	cmd.Env = append(os.Environ(), "IOTLS_INTERN_CHILD_OUT="+out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process fault study: %v\n%s", err, b)
	}
	fresh, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("fresh-process fault study wrote no render: %v", err)
	}
	if faulty != string(fresh) {
		t.Errorf("fault study after a clean one rendered differently from a fresh process: %s",
			firstDiff(string(fresh), faulty))
	}
}

// TestInternedFaultStudyChild renders the fault study as the first
// study of its process, for TestChaosInternedCertsAcrossStudies.
func TestInternedFaultStudyChild(t *testing.T) {
	out := os.Getenv("IOTLS_INTERN_CHILD_OUT")
	if out == "" {
		t.Skip("driven by TestChaosInternedCertsAcrossStudies only")
	}
	if err := os.WriteFile(out, []byte(internStudy(t, true)), 0o644); err != nil {
		t.Fatal(err)
	}
}
