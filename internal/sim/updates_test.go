package sim

import (
	"testing"

	"owan/internal/core"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// TestPlanUpdatesProducesPerSlotStats: with PlanUpdates on, the simulator
// plans every slot's transition end to end — one update.SlotStat per simulated
// slot, with real plans on the slots where the scheduler was active.
func TestPlanUpdatesProducesPerSlotStats(t *testing.T) {
	net := topology.Internet2(8)
	reqs, err := workload.Generate(workload.Config{
		Sites: 9, MeanSizeGbits: 500 * workload.GB, TotalDemandGbits: 20 * workload.TB,
		Load: 1, DurationSlots: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 2, MaxIterations: 120})
	sched := &OwanScheduler{O: o, SlotSeconds: 300}
	defer sched.Close()
	res, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: sched, Requests: reqs,
		SlotSeconds: 300, MaxSlots: 400,
		PlanUpdates:   true,
		FiberFailures: map[int][]int{2: {11}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != res.Slots {
		t.Fatalf("got %d update stats for %d slots", len(res.Updates), res.Slots)
	}
	planned, withOps := 0, 0
	for slot, u := range res.Updates {
		if !u.Planned {
			if u.Rounds != 0 || u.Ops != 0 || u.Seconds != 0 {
				t.Fatalf("slot %d: unplanned slot carries stats %+v", slot, u)
			}
			continue
		}
		planned++
		if u.Err {
			continue
		}
		if u.Ops > 0 {
			withOps++
			if u.Rounds <= 0 || u.Seconds <= 0 {
				t.Fatalf("slot %d: %d ops but rounds=%d seconds=%v", slot, u.Ops, u.Rounds, u.Seconds)
			}
		}
		if u.MinGbps < 0 {
			t.Fatalf("slot %d: negative min throughput %v", slot, u.MinGbps)
		}
	}
	if planned == 0 {
		t.Fatal("no slot was planned")
	}
	if withOps == 0 {
		t.Fatal("no planned slot carried any update operation")
	}
}

// TestPlanUpdatesOffLeavesResultEmpty: the planner is strictly opt-in.
func TestPlanUpdatesOffLeavesResultEmpty(t *testing.T) {
	net := topology.Square()
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 1, MaxIterations: 60})
	sched := &OwanScheduler{O: o, SlotSeconds: 10}
	defer sched.Close()
	res, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: sched, Requests: squareRequests(),
		SlotSeconds: 10, MaxSlots: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 0 {
		t.Fatalf("PlanUpdates off but %d stats recorded", len(res.Updates))
	}
}
