package workload

import (
	"fmt"
	"math/rand"

	"satalloc/internal/model"
)

// This file builds the hierarchical architectures A, B and C of Figure 2,
// used by Table 4. The paper extends the 8-ECU architecture of [5] with
// additional token-ring/CAN media and gateway nodes:
//
//   - Architecture A: the eight application ECUs split across two buses
//     (0–3 and 4–7) joined by a dedicated gateway node 8 that may not host
//     tasks.
//   - Architecture B: three buses in a chain — ECUs 0–2, ECUs 8–11, and
//     ECUs 5–7 — joined by dedicated gateway nodes 4 and 3 (again
//     task-free). Every cross-cluster message crosses up to two gateways.
//   - Architecture C: two buses sharing application ECU 0 as the gateway
//     (gateways may host tasks here), keeping all eight application ECUs.
//
// Gateway forwarding cost is a small per-message constant.

const gatewayServiceCost = 2

func ringMedium(id int, name string, ecus []int) *model.Medium {
	return &model.Medium{
		ID: id, Name: name, Kind: model.TokenRing, ECUs: ecus,
		TimePerUnit: 1, FrameOverhead: 1, SlotQuantum: 2, MaxSlots: 8,
	}
}

// ArchitectureA builds architecture A of Figure 2.
func ArchitectureA() *model.System {
	s := &model.System{Name: "arch-A"}
	for i := 0; i < 8; i++ {
		s.ECUs = append(s.ECUs, &model.ECU{ID: i, Name: fmt.Sprintf("p%d", i)})
	}
	s.ECUs = append(s.ECUs, &model.ECU{ID: 8, Name: "gw8", GatewayOnly: true, ServiceCost: gatewayServiceCost})
	s.Media = []*model.Medium{
		ringMedium(0, "lower", []int{0, 1, 2, 3, 8}),
		ringMedium(1, "upper", []int{4, 5, 6, 7, 8}),
	}
	return s
}

// ArchitectureB builds architecture B of Figure 2.
func ArchitectureB() *model.System {
	s := &model.System{Name: "arch-B"}
	app := []int{0, 1, 2, 5, 6, 7, 8, 9, 10, 11}
	for _, i := range app {
		s.ECUs = append(s.ECUs, &model.ECU{ID: i, Name: fmt.Sprintf("p%d", i)})
	}
	s.ECUs = append(s.ECUs,
		&model.ECU{ID: 4, Name: "gw4", GatewayOnly: true, ServiceCost: gatewayServiceCost},
		&model.ECU{ID: 3, Name: "gw3", GatewayOnly: true, ServiceCost: gatewayServiceCost},
	)
	s.Media = []*model.Medium{
		ringMedium(0, "left", []int{0, 1, 2, 4}),
		ringMedium(1, "middle", []int{4, 8, 9, 10, 11, 3}),
		ringMedium(2, "right", []int{3, 5, 6, 7}),
	}
	return s
}

// ArchitectureC builds architecture C of Figure 2: node 0 doubles as the
// gateway and may still host tasks.
func ArchitectureC() *model.System {
	s := &model.System{Name: "arch-C"}
	for i := 0; i < 8; i++ {
		e := &model.ECU{ID: i, Name: fmt.Sprintf("p%d", i)}
		if i == 0 {
			e.ServiceCost = gatewayServiceCost
		}
		s.ECUs = append(s.ECUs, e)
	}
	s.Media = []*model.Medium{
		ringMedium(0, "lower", []int{0, 1, 2, 3}),
		ringMedium(1, "upper", []int{0, 4, 5, 6, 7}),
	}
	return s
}

// HierarchicalT43 populates one of the Figure 2 architectures with the
// T43 task set (Table 4 experiments). Messages get relaxed deadlines so
// multi-hop routes with gateway costs remain representable.
func HierarchicalT43(arch *model.System) *model.System {
	o := T43Options()
	s := Populate(arch, o)
	// Multi-hop routes consume budget on every medium plus gateway fees;
	// keep the original tightness on one hop but let two-hop routes
	// breathe.
	for _, m := range s.Messages {
		m.Deadline += m.Deadline / 2
	}
	return s
}

// SwapMediumToCAN converts one medium of a system to CAN, as in the §6
// experiment that exchanges buses of architecture C for a CAN bus.
func SwapMediumToCAN(s *model.System, mediumID int) *model.System {
	for _, m := range s.Media {
		if m.ID == mediumID {
			m.Kind = model.CAN
			m.Name += "-can"
		}
	}
	return s
}

// TinyTwoBus returns a spec small enough for baseline.Exhaustive that
// still crosses a gateway: two token rings joined by a task-free gateway
// node (ECU 2), three tasks, and one message from a task on the first
// ring to a task pinned to ECU 3 on the second, so every route takes
// both hops. The seed varies WCETs, the message size and its deadline.
func TinyTwoBus(seed int64) *model.System {
	rng := rand.New(rand.NewSource(seed))
	s := &model.System{Name: fmt.Sprintf("tiny2bus-s%d", seed)}
	s.ECUs = []*model.ECU{
		{ID: 0, Name: "p0"}, {ID: 1, Name: "p1"},
		{ID: 2, Name: "gw", GatewayOnly: true, ServiceCost: 1},
		{ID: 3, Name: "p3"},
	}
	mk := func(id int, ecus []int) *model.Medium {
		return &model.Medium{ID: id, Name: "k", Kind: model.TokenRing, ECUs: ecus,
			TimePerUnit: 1, SlotQuantum: 2, MaxSlots: 3}
	}
	s.Media = []*model.Medium{mk(0, []int{0, 1, 2}), mk(1, []int{2, 3})}
	s.Tasks = []*model.Task{
		{ID: 0, Name: "a", Period: 60, Deadline: 60,
			WCET: map[int]int64{0: 5 + int64(rng.Intn(4)), 1: 6}, Allowed: []int{0, 1}, Messages: []int{0}},
		{ID: 1, Name: "b", Period: 60, Deadline: 60,
			WCET: map[int]int64{3: 5 + int64(rng.Intn(4))}, Allowed: []int{3}},
		{ID: 2, Name: "c", Period: 30, Deadline: 30,
			WCET: map[int]int64{0: 4, 1: 4, 3: 4 + int64(rng.Intn(3))}},
	}
	s.Messages = []*model.Message{
		{ID: 0, Name: "m", From: 0, To: 1, Size: 1 + int64(rng.Intn(2)), Deadline: 45 + int64(rng.Intn(10))},
	}
	return s
}
