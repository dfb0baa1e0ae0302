package sim

import (
	"strings"
	"testing"
)

// TestEpochScenariosHoldInvariants runs a spread of seeded mobile-churn
// scenarios through the epoch pipeline and asserts k-anonymity,
// reciprocity, coverage, and the isolation condition hold within every
// published generation independently. Every transcript line must have
// its generation in the report, so no build goes unchecked.
func TestEpochScenariosHoldInvariants(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		sc := GenerateEpochScenario(seed)
		rep, err := RunEpochScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(rep.Generations) < 2 {
			t.Errorf("%s: only %d generations; churn should rotate more", sc.Name, len(rep.Generations))
		}
		if len(rep.Generations) != len(rep.Transcript) {
			t.Errorf("%s: %d generations checked for %d transcript lines", sc.Name, len(rep.Generations), len(rep.Transcript))
		}
		if v := rep.Violations(); len(v) > 0 {
			t.Errorf("%s violated:\n  %s\n  transcript:\n  %s",
				sc.Name, strings.Join(v, "\n  "), strings.Join(rep.Transcript, "\n  "))
		}
	}
}

// TestProfiledEpochScenariosSatisfyMaxKi is the acceptance sweep for
// heterogeneous privacy profiles end to end: 100 seeded mobile-churn
// scenarios where a seeded fraction of users demands a personal
// anonymity floor above the service K. Every published generation must
// hold every invariant with the k-anonymity check raised to max(k_i)
// over each cluster's members — zero violations tolerated.
func TestProfiledEpochScenariosSatisfyMaxKi(t *testing.T) {
	if testing.Short() {
		t.Skip("100-scenario sweep skipped in -short mode")
	}
	profiledSomewhere := false
	for seed := int64(1); seed <= 100; seed++ {
		sc := GenerateProfiledEpochScenario(seed)
		if len(sc.Profiles) > 0 {
			profiledSomewhere = true
		}
		rep, err := RunEpochScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if v := rep.Violations(); len(v) > 0 {
			t.Errorf("%s violated:\n  %s\n  transcript:\n  %s",
				sc.Name, strings.Join(v, "\n  "), strings.Join(rep.Transcript, "\n  "))
		}
	}
	if !profiledSomewhere {
		t.Fatal("no scenario assigned a single raised profile — the generator never engaged")
	}
}

// TestEpochScenarioDeterministic: the same seed must reproduce the
// byte-identical epoch transcript — the property that makes violations
// in the churn harness re-runnable.
func TestEpochScenarioDeterministic(t *testing.T) {
	sc := GenerateEpochScenario(7)
	a, err := RunEpochScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEpochScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := strings.Join(a.Transcript, "\n"), strings.Join(b.Transcript, "\n")
	if ta == "" {
		t.Fatal("empty transcript")
	}
	if ta != tb {
		t.Fatalf("transcripts differ:\nrun A:\n%s\nrun B:\n%s", ta, tb)
	}
}

// TestEpochViolationDetectorsFire sanity-checks the checkers are not
// vacuous: hand-corrupting a generation's registry must surface a
// violation.
func TestEpochViolationDetectorsFire(t *testing.T) {
	sc := GenerateEpochScenario(3)
	rep, err := RunEpochScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) > 0 {
		t.Fatalf("clean run already violated: %v", v)
	}
	gen := rep.Generations[len(rep.Generations)-1]
	reg := gen.Anon.Registry()
	clusters := reg.Clusters()
	if len(clusters) == 0 {
		t.Skip("no clusters formed in this scenario")
	}
	// Shrink a cluster below k behind the registry's back.
	c := clusters[0]
	c.Members = c.Members[:1]
	if v := rep.Violations(); len(v) == 0 {
		t.Error("undersized cluster not detected")
	}
}
