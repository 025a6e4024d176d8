package faultinject

import "testing"

// Every listed scenario must build, and the armed site must actually fire
// within a small call budget — a plan that never fires would make a chaos
// run silently vacuous.
func TestClusterPlanScenarios(t *testing.T) {
	sites := map[string]string{
		ScenarioWorkerKill:         SiteWorkerKill,
		ScenarioHeartbeatBlackhole: SiteHeartbeatBlackhole,
		ScenarioCoordinatorRestart: SiteCoordinatorCrash,
	}
	for _, sc := range ClusterScenarios() {
		p, err := ClusterPlan(sc, 42)
		if err != nil {
			t.Fatalf("ClusterPlan(%s): %v", sc, err)
		}
		site, ok := sites[sc]
		if !ok {
			t.Fatalf("scenario %s missing from site map", sc)
		}
		fired := 0
		for i := 0; i < 12; i++ {
			if p.Fire(site) {
				fired++
			}
		}
		if fired == 0 {
			t.Errorf("scenario %s: site %s never fired in 12 calls", sc, site)
		}
	}
}

func TestClusterPlanUnknownScenario(t *testing.T) {
	if _, err := ClusterPlan("split-brain", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// Determinism: same scenario + seed → identical firing sequence. The
// chaos suite's reproduce-from-seed contract rests on this.
func TestClusterPlanDeterministic(t *testing.T) {
	for _, sc := range ClusterScenarios() {
		a, _ := ClusterPlan(sc, 7)
		b, _ := ClusterPlan(sc, 7)
		site := map[string]string{
			ScenarioWorkerKill:         SiteWorkerKill,
			ScenarioHeartbeatBlackhole: SiteHeartbeatBlackhole,
			ScenarioCoordinatorRestart: SiteCoordinatorCrash,
		}[sc]
		for i := 0; i < 50; i++ {
			if a.Fire(site) != b.Fire(site) {
				t.Fatalf("scenario %s seed 7: decision %d diverged", sc, i)
			}
		}
	}
}
