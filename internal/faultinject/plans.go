package faultinject

import "fmt"

// Cluster fault scenarios. Each names a failure domain in the
// coordinator/worker topology (see ARCHITECTURE.md, "Failure domains");
// ClusterPlan arms a Plan's sites for that scenario, and the chaos suite
// wires the armed sites into the service's cluster seams. The site names
// are a contract with the suite, not just labels:
//
//	worker-kill          the worker's attempt hangs past the lease TTL and
//	                     its heartbeats stop — the process-crash shape
//	heartbeat-blackhole  heartbeats are dropped but the attempt keeps
//	                     running — the network-partition shape (the result
//	                     arrives late and must be dropped)
//	coordinator-restart  the coordinator crashes mid-flight and must
//	                     recover leases from the journal on restart
const (
	ScenarioWorkerKill         = "worker-kill"
	ScenarioHeartbeatBlackhole = "heartbeat-blackhole"
	ScenarioCoordinatorRestart = "coordinator-restart"
)

// ClusterScenarios lists every cluster fault scenario, in the order CI's
// chaos matrix runs them.
func ClusterScenarios() []string {
	return []string{
		ScenarioWorkerKill,
		ScenarioHeartbeatBlackhole,
		ScenarioCoordinatorRestart,
	}
}

// Cluster site names armed by ClusterPlan. SiteWorkerKill and
// SiteHeartbeatBlackhole are asked once per dispatched attempt;
// SiteCoordinatorCrash once per completed job (firing crashes the
// coordinator after that completion).
const (
	SiteWorkerKill         = "cluster/worker-kill"
	SiteHeartbeatBlackhole = "cluster/heartbeat-blackhole"
	SiteCoordinatorCrash   = "cluster/coordinator-crash"
)

// ClusterPlan builds the deterministic fault schedule for one cluster
// chaos scenario. The rates are chosen so a small job batch exercises the
// scenario's failover path at least once without drowning the run:
// kill/blackhole fire on every 3rd attempt (deterministic, so the suite
// can predict exactly which jobs fail over), and a coordinator crash fires
// on the 2nd completion.
func ClusterPlan(scenario string, seed int64) (*Plan, error) {
	p := New(seed)
	switch scenario {
	case ScenarioWorkerKill:
		p.ArmEvery(SiteWorkerKill, 3)
	case ScenarioHeartbeatBlackhole:
		p.ArmEvery(SiteHeartbeatBlackhole, 3)
	case ScenarioCoordinatorRestart:
		p.ArmEvery(SiteCoordinatorCrash, 2)
	default:
		return nil, fmt.Errorf("faultinject: unknown cluster scenario %q", scenario)
	}
	return p, nil
}
