package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xen"
)

// Each driver times calls into one layer's public functions from outside
// the simulator: the wall clock is read only around those calls, never in
// a callback the simulator runs. Before reporting, a driver checks that
// the work it timed really happened, and it fails rather than report a
// rate over an empty window.

// layerDriver produces one or more per-layer metrics.
type layerDriver struct {
	name string
	run  func() (map[string]float64, error)
}

var layerDrivers = []layerDriver{
	{"sim", driveSim},
	{"ixp-idle", driveIXPIdle},
	{"ixp-packet", driveIXPPacket},
	{"xen", driveXen},
	{"pcie", drivePCIeTune},
	{"core", driveReliableTune},
	{"overload", driveOverload},
	{"energy", driveEnergy},
	{"flight", driveFlight},
	{"stats", driveStats},
	{"scenario", driveScenario},
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perOp divides a total over n operations, refusing an empty window. The
// drivers with a fixed positive operation count divide directly.
func perOp(total float64, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("empty measurement window")
	}
	return total / float64(n), nil
}

// Pending-set depths of the event-kernel driver. A RUBiS platform keeps a
// few hundred events pending; the coordscale star hub at 256 islands
// builds a backlog of over a hundred thousand.
const (
	shallowPending = 256
	deepPending    = 1 << 17
)

func driveSim() (map[string]float64, error) {
	ns, allocs, err := simEvents(shallowPending, 1_000_000)
	if err != nil {
		return nil, err
	}
	nsDeep, _, err := simEvents(deepPending, 300_000)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"sim.event_ns": ns, "sim.allocs_per_event": allocs, "sim.event_ns_deep": nsDeep}, nil
}

// simEvents keeps pending events queued and times n rounds of After plus
// Step.
func simEvents(pending, n int) (nsPerEvent, allocsPerEvent float64, err error) {
	s := sim.New(1)
	rng := sim.NewRand(1)
	delays := make([]sim.Time, pending+n)
	for i := range delays {
		delays[i] = sim.Time(1+rng.Intn(1000)) * sim.Microsecond
	}
	fired := 0
	fn := func() { fired++ }
	for _, d := range delays[:pending] {
		s.After(d, fn)
	}
	m0 := mallocs()
	t0 := time.Now()
	for _, d := range delays[pending:] {
		s.After(d, fn)
		s.Step()
	}
	el := time.Since(t0)
	m1 := mallocs()
	s.Run()
	if fired != len(delays) || s.Fired() != uint64(len(delays)) {
		return 0, 0, fmt.Errorf("sim: %d events scheduled, %d fired", len(delays), fired)
	}
	if nsPerEvent, err = perOp(float64(el.Nanoseconds()), n); err != nil {
		return 0, 0, err
	}
	allocsPerEvent, err = perOp(float64(m1-m0), n)
	return nsPerEvent, allocsPerEvent, err
}

// rubisGuests provisions the three RUBiS tiers' VMs and flow queues.
func rubisGuests(p *platform.Platform) []*xen.Domain {
	var ds []*xen.Domain
	for _, name := range []string{"web", "app", "db"} {
		ds = append(ds, p.AddGuest(name, 256))
	}
	return ds
}

// driveIXPIdle runs a platform with the RUBiS guests and no traffic: all
// the host time goes to the IXP workers' poll loops and Xen's ticks.
func driveIXPIdle() (map[string]float64, error) {
	p := platform.New(platform.Config{Seed: 1})
	rubisGuests(p)
	p.Sim.RunUntil(10 * sim.Millisecond)
	const span = 4 * sim.Second
	f0, from := p.Sim.Fired(), p.Sim.Now()
	t0 := time.Now()
	p.Sim.RunUntil(from + span)
	el := time.Since(t0)
	if p.Sim.Fired() == f0 || p.Sim.Now() != from+span || p.IXP.RxSeen() != 0 {
		return nil, fmt.Errorf("ixp idle: window fired %d events over %v with %d packets seen",
			p.Sim.Fired()-f0, p.Sim.Now()-from, p.IXP.RxSeen())
	}
	return map[string]float64{"ixp.idle_us_per_sim_ms": float64(el.Nanoseconds()) / 1e3 / float64(span/sim.Millisecond)}, nil
}

// driveIXPPacket streams packets from the wire into IXP.Receive and runs
// the platform until the guest's host handler has seen every one.
func driveIXPPacket() (map[string]float64, error) {
	p := platform.New(platform.Config{Seed: 1})
	vm := rubisGuests(p)[0]
	delivered := 0
	p.Host.Register(vm.ID(), func(*netsim.Packet) { delivered++ })
	p.Sim.RunUntil(10 * sim.Millisecond)
	const (
		n   = 5000
		gap = 200 * sim.Microsecond
	)
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.IXP.Receive(&netsim.Packet{ID: uint64(i + 1), Size: 1024, DstVM: vm.ID(), SrcVM: -1, Created: p.Sim.Now()})
		p.Sim.RunUntil(p.Sim.Now() + gap)
	}
	limit := p.Sim.Now() + sim.Second
	for delivered < n && p.Sim.Now() < limit {
		p.Sim.RunUntil(p.Sim.Now() + gap)
	}
	el := time.Since(t0)
	m1 := mallocs()
	if delivered != n || p.IXP.RxSeen() != n {
		return nil, fmt.Errorf("ixp packet: %d packets sent, %d received, %d delivered", n, p.IXP.RxSeen(), delivered)
	}
	return map[string]float64{
		"ixp.packet_us":         float64(el.Nanoseconds()) / 1e3 / n,
		"ixp.allocs_per_packet": float64(m1-m0) / n,
	}, nil
}

// driveXen keeps three single-VCPU domains busy with chains of 1 ms tasks
// on the two-PCPU credit scheduler until every task has completed.
func driveXen() (map[string]float64, error) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{})
	const (
		perDomain = 10_000
		demand    = sim.Millisecond
	)
	var doms []*xen.Domain
	completed := 0
	for _, name := range []string{"web", "app", "db"} {
		d := hv.CreateDomain(name, 256, 1)
		doms = append(doms, d)
		left := perDomain
		var next func()
		next = func() {
			if left == 0 {
				return
			}
			left--
			d.SubmitFunc(demand, "task", func() {
				completed++
				next()
			})
		}
		next()
	}
	hv.Start()
	const n = 3 * perDomain
	s0 := hv.Schedules()
	t0 := time.Now()
	for completed < n && s.Step() {
	}
	el := time.Since(t0)
	var submitted, done uint64
	for _, d := range doms {
		submitted += d.TasksSubmitted()
		done += d.TasksCompleted()
	}
	if submitted != n || done != n || completed != n {
		return nil, fmt.Errorf("xen: %d tasks submitted, %d completed", submitted, done)
	}
	return map[string]float64{
		"xen.task_us":            float64(el.Nanoseconds()) / 1e3 / n,
		"xen.schedules_per_task": float64(hv.Schedules()-s0) / n,
	}, nil
}

// noopActuator is the sending island's actuator: the drivers only send
// from it.
type noopActuator struct{}

func (noopActuator) ApplyTune(entity, delta int) error { return nil }
func (noopActuator) ApplyTrigger(entity int) error     { return nil }

// coordPlane is the coordination plane of platform.New without the IXP's
// data path: the IXP agent sends over the PCIe mailbox to the controller,
// which routes to the x86 agent and its Xen actuator.
type coordPlane struct {
	sim      *sim.Simulator
	vm       *xen.Domain
	ixpAgent *core.Agent
	x86Agent *core.Agent
	uplink   *core.ReliableEndpoint // nil on the plain plane
}

// reliableLossRate is the mailbox loss under which the reliable Tunes run.
const reliableLossRate = 0.1

// newCoordPlane wires the plain plane, or the reliable one (ack/retry
// endpoints on both mailbox directions) under reliableLossRate loss.
func newCoordPlane(reliable bool) (*coordPlane, error) {
	s := sim.New(1)
	hv := xen.New(s, xen.Options{})
	ctl := xen.NewCtl(hv)
	mb := pcie.NewMailbox(s, 150*sim.Microsecond)
	ctrl := core.NewController()
	act := core.NewX86Actuator(ctl)
	act.MinWeight, act.MaxWeight = 64, 1024
	x86Agent := core.NewAgent(platform.X86Island, nil, ctrl.Route, act)
	if err := ctrl.RegisterIsland(core.IslandHandle{Name: platform.X86Island, Local: x86Agent.Deliver}); err != nil {
		return nil, err
	}
	rawUp, rawDown := core.NewDeviceUplink(mb), core.NewHostDownlink(mb)
	cp := &coordPlane{sim: s, x86Agent: x86Agent}
	var up, down core.Transport = rawUp, rawDown
	toIXP := rawDown.SetReceiver
	if reliable {
		mb.SetFaults(pcie.NewInjector(pcie.FaultPlan{Seed: 1, LossRate: reliableLossRate}))
		epDev := core.NewReliableEndpoint(s, "ixp-uplink", rawUp, rawDown, core.ReliableConfig{})
		epHost := core.NewReliableEndpoint(s, "host-downlink", rawDown, rawUp, core.ReliableConfig{})
		epHost.SetReceiver(ctrl.Route)
		up, down, cp.uplink, toIXP = epDev, epHost, epDev, epDev.SetReceiver
	} else {
		rawUp.SetReceiver(ctrl.Route)
	}
	cp.ixpAgent = core.NewAgent(platform.IXPIsland, up, nil, noopActuator{})
	toIXP(cp.ixpAgent.Deliver)
	if err := ctrl.RegisterIsland(core.IslandHandle{Name: platform.IXPIsland, Downlink: down}); err != nil {
		return nil, err
	}
	cp.vm = hv.CreateDomain("web", 256, 1)
	if err := ctrl.RegisterEntity(core.Entity{ID: cp.vm.ID(), Name: "web", Home: platform.X86Island}); err != nil {
		return nil, err
	}
	act.SetBaseline(cp.vm.ID(), 256)
	hv.Start()
	return cp, nil
}

// tunes sends n alternating +1/-1 Tunes from the IXP agent and steps the
// simulator until each is applied to the VM's credit weight.
func (cp *coordPlane) tunes(n int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		delta := 1 - 2*(i%2)
		want := cp.vm.Weight() + delta
		applied := cp.x86Agent.Stats().TunesApplied
		if !cp.ixpAgent.SendTune(platform.X86Island, cp.vm.ID(), delta) {
			return 0, fmt.Errorf("tune %d refused by the sending agent", i)
		}
		limit := cp.sim.Now() + sim.Second
		for cp.x86Agent.Stats().TunesApplied == applied {
			if !cp.sim.Step() || cp.sim.Now() > limit {
				return 0, fmt.Errorf("tune %d not applied within 1s of simulated time", i)
			}
		}
		if cp.vm.Weight() != want {
			return 0, fmt.Errorf("tune %d left weight %d, want %d", i, cp.vm.Weight(), want)
		}
	}
	el := time.Since(t0)
	sent, applied := cp.ixpAgent.Stats().TunesSent, cp.x86Agent.Stats().TunesApplied
	if sent != uint64(n) || applied != uint64(n) {
		return 0, fmt.Errorf("%d tunes sent, %d applied, want %d", sent, applied, n)
	}
	return el, nil
}

func drivePCIeTune() (map[string]float64, error) {
	cp, err := newCoordPlane(false)
	if err != nil {
		return nil, err
	}
	const n = 50_000
	el, err := cp.tunes(n)
	if err != nil {
		return nil, fmt.Errorf("pcie: %w", err)
	}
	return map[string]float64{"pcie.tune_us": float64(el.Nanoseconds()) / 1e3 / n}, nil
}

func driveReliableTune() (map[string]float64, error) {
	cp, err := newCoordPlane(true)
	if err != nil {
		return nil, err
	}
	const n = 20_000
	el, err := cp.tunes(n)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	st := cp.uplink.Stats()
	if st.Retransmits == 0 {
		return nil, fmt.Errorf("core: %d tunes under %.0f%% loss needed no retransmit", n, 100*reliableLossRate)
	}
	return map[string]float64{
		"core.reliable_tune_us":     float64(el.Nanoseconds()) / 1e3 / n,
		"core.retransmits_per_tune": float64(st.Retransmits) / n,
	}, nil
}

// driveOverload keeps a 4-worker admission queue saturated with 4 waiting
// requests: every admission after the first 8 queues, and every release
// hands a worker to the head of the queue.
func driveOverload() (map[string]float64, error) {
	s := sim.New(1)
	q := overload.NewQueue(s, 4, overload.QueueConfig{Cap: 64, Policy: overload.PriorityDrop})
	const (
		n        = 1_000_000
		inFlight = 8
	)
	served := 0
	run := func() { served++ }
	classes := []overload.Class{overload.ClassBrowse, overload.ClassTransact}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q.Acquire(classes[i%2], run, nil)
		if i >= inFlight-1 {
			q.Release()
		}
	}
	el := time.Since(t0)
	for i := 0; i < inFlight-1; i++ {
		q.Release()
	}
	st := q.Stats()
	if st.Offered != n || st.Served != n || served != n || st.Shed+st.Expired != 0 {
		return nil, fmt.Errorf("overload: %d offered, %d served (%d ran), %d shed, %d expired",
			st.Offered, st.Served, served, st.Shed, st.Expired)
	}
	return map[string]float64{"overload.admit_ns": float64(el.Nanoseconds()) / n}, nil
}

// driveEnergy runs the integrating meter over two constant-power islands.
func driveEnergy() (map[string]float64, error) {
	s := sim.New(1)
	const (
		period  = sim.Millisecond
		windows = 500_000
	)
	m := energy.NewMeter(s, period, []energy.IslandSource{
		{Name: "x86", Watts: func() float64 { return 140 }},
		{Name: "ixp", Watts: func() float64 { return 24 }},
	})
	t0 := time.Now()
	s.RunUntil(windows * period)
	el := time.Since(t0)
	if want := int64(windows) * int64(period) * (140 + 24); m.PlatformNJ() != want {
		return nil, fmt.Errorf("energy: meter accrued %d nJ over %d windows, want %d", m.PlatformNJ(), windows, want)
	}
	return map[string]float64{"energy.meter_ns": float64(el.Nanoseconds()) / windows}, nil
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// driveFlight records a RUBiS-like stream of coordination events: sends,
// applies and weight changes of three entities, 150 us apart.
func driveFlight() (map[string]float64, error) {
	const n = 1_000_000
	events := make([]flight.Event, n)
	labels := []string{platform.X86Island, platform.IXPIsland}
	cats := []flight.Category{flight.CatSend, flight.CatApply, flight.CatWeight}
	for i := range events {
		events[i] = flight.Event{
			T:      sim.Time(i) * 150 * sim.Microsecond,
			Cat:    cats[i%len(cats)],
			Label:  labels[i%len(labels)],
			Entity: int32(1 + i%3),
			Arg:    int64(256 + i%7),
		}
	}
	w := &countingWriter{}
	r, err := flight.NewRecorder(w, 1, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	t0 := time.Now()
	for _, ev := range events {
		r.Record(ev)
	}
	el := time.Since(t0)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if r.Events() != n || w.n == 0 {
		return nil, fmt.Errorf("flight: %d events recorded into %d bytes, want %d events", r.Events(), w.n, n)
	}
	return map[string]float64{
		"flight.append_ns":       float64(el.Nanoseconds()) / n,
		"flight.bytes_per_event": float64(w.n) / n,
	}, nil
}

// driveStats takes the p99 and maximum of 450k latencies, the size of
// coordscale's largest points, and reports the median of 5 rounds.
func driveStats() (map[string]float64, error) {
	const (
		n      = 450_000
		rounds = 5
	)
	rng := sim.NewRand(1)
	values := make([]float64, n)
	max := 0.0
	for i := range values {
		values[i] = 150 + rng.Exp(2e6)
		if values[i] > max {
			max = values[i]
		}
	}
	var times []float64
	for r := 0; r < rounds; r++ {
		var smp stats.Sample
		for _, v := range values {
			smp.Add(v)
		}
		t0 := time.Now()
		smp.Percentile(99)
		top := smp.Percentile(100)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		if smp.Count() != n || top != max {
			return nil, fmt.Errorf("stats: %d values with maximum %v, want %d with %v", smp.Count(), top, n, max)
		}
	}
	return map[string]float64{"stats.percentile_us": median(times)}, nil
}

// driveScenario generates one 20 s trace of every generator family, as
// the planes workload's catalog does.
func driveScenario() (map[string]float64, error) {
	kinds := scenario.Kinds()
	t0 := time.Now()
	for _, k := range kinds {
		tr, err := scenario.Generate(scenario.GenSpec{Kind: k, Duration: 20 * sim.Second, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", k, err)
		}
		if err := tr.Validate(); err != nil || len(tr.Reqs) == 0 {
			return nil, fmt.Errorf("scenario %s: %d requests, validation: %v", k, len(tr.Reqs), err)
		}
	}
	ms, err := perOp(float64(time.Since(t0).Nanoseconds())/1e6, len(kinds))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return map[string]float64{"scenario.generate_ms": ms}, nil
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
