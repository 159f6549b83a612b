package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"owan/internal/core"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
)

// Controller-side liveness defaults. DefaultReadTimeout must comfortably
// exceed the client's DefaultHeartbeatInterval so a healthy idle client
// is never declared dead between beats.
const (
	DefaultReadTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 10 * time.Second
)

// admitBatchMax bounds how many queued submissions one shard worker
// admits under a single lock acquisition. Batching amortizes the
// controller lock and store writes across a burst without letting one
// shard monopolize the lock.
const admitBatchMax = 256

// snapMaxEntries bounds a resync snapshot so it always fits the 1 MiB
// frame limit; a snapshot that had to cut entries says so (Truncated).
const snapMaxEntries = 4096

// Controller is the centralized Owan controller: it accepts client
// connections, collects transfer requests through sharded bounded
// admission queues, computes the network state each slot, and pushes rate
// allocations back per shard to the clients that submitted the transfers.
// All durable state (requests, progress) lives in a store.Store so a
// replacement controller can take over (§3.4); reconnecting clients
// converge via a one-round-trip snapshot resync instead of resubmission.
type Controller struct {
	Net         *topology.Network
	SlotSeconds float64

	readTO     time.Duration
	writeTO    time.Duration
	clock      Clock
	maxClients int
	retryAfter time.Duration // backpressure hint handed to shed clients
	admitGate  chan struct{} // test-only stall for shard workers

	// slotMu serializes the slot-level operations — Tick, FailFiber, Close —
	// with each other and never with admission. It alone guards the state
	// only they touch: the optimizer core, the current topology, the failed
	// fibers and the update planner's previous state. Net is written under
	// slotMu and mu together, so holding either is enough to read it. Lock
	// order: slotMu before mu.
	slotMu     sync.Mutex
	owan       *core.Owan
	topo       *topology.LinkSet
	failed     map[int]bool // fiber ids already failed (idempotent reports)
	prevUpdate *update.State
	updScratch *update.Scratch

	// mu guards everything admission, status and the connection handlers
	// share with a slot's snapshot and commit phases. It is never held
	// across a search, a route-table repair, a store write or a send.
	mu        sync.Mutex
	transfers map[int]*transfer.Transfer // live transfers; commit evicts the finished
	owners    map[int]int                // live transfer id -> submitting site
	sites     map[int]*clientConn        // site -> most recent live connection
	tokens    map[string]int             // idempotency token -> transfer id, finished ones too
	tokenByID map[int]string             // reverse of tokens for live transfers, for persistence
	// resyncNeeded marks sites whose rate push was dropped (write timeout
	// or dead connection): the next snapshot resync from that site clears
	// the mark. Purely observational — pushes resume at the next tick once
	// the site reconnects.
	resyncNeeded map[int]bool
	nRegistered  int
	nextID       int
	slot         int
	// admitSlot is the first slot that can still schedule a new arrival:
	// slot, or slot+1 from the moment a Tick has snapshotted slot's demand
	// until it commits.
	admitSlot int
	completed int
	circuits  int // circuits in the topology of the last committed slot
	st        *store.Store
	lastPlan  UpdatePlanStats // the most recent consistent rollout (§3.3)

	shards []*admitShard

	lis     net.Listener
	conns   map[*clientConn]bool
	closing bool
	done    chan struct{}
	wg      sync.WaitGroup

	ctr serverCounters
}

// admitShard is one bounded admission queue plus its worker (started in
// newController, stopped by Close).
type admitShard struct {
	jobs chan admitJob
}

// admitJob is one queued submission awaiting batch admission.
type admitJob struct {
	cc    *clientConn
	seq   uint64
	req   WireRequest
	token string
}

// serverCounters is the internal atomic form of ServerCounters.
type serverCounters struct {
	admitted       atomic.Uint64
	admitBatches   atomic.Uint64
	overloads      atomic.Uint64
	refusedClients atomic.Uint64
	ratePushes     atomic.Uint64
	pushShards     atomic.Uint64
	pushFailures   atomic.Uint64
	resyncs        atomic.Uint64
}

// ServerCounters is a snapshot of the controller's admission/push
// counters (the quantities the load generator asserts on).
type ServerCounters struct {
	// Admitted counts transfers committed through the admission pipeline;
	// AdmitBatches counts lock acquisitions that committed them, so
	// Admitted/AdmitBatches is the realized batching factor.
	Admitted     uint64
	AdmitBatches uint64
	// Overloads counts submissions shed with ErrCodeOverloaded because a
	// shard queue was full; RefusedClients counts hellos shed because the
	// WithMaxClients cap was reached.
	Overloads      uint64
	RefusedClients uint64
	// RatePushes counts per-client rate messages delivered; PushShards
	// counts shard push groups flushed; PushFailures counts pushes dropped
	// on a write timeout or dead connection (the site is then marked for
	// resync).
	RatePushes   uint64
	PushShards   uint64
	PushFailures uint64
	// Resyncs counts snapshot resyncs served.
	Resyncs uint64
}

// Counters returns a snapshot of the admission/push counters.
func (c *Controller) Counters() ServerCounters {
	return ServerCounters{
		Admitted:       c.ctr.admitted.Load(),
		AdmitBatches:   c.ctr.admitBatches.Load(),
		Overloads:      c.ctr.overloads.Load(),
		RefusedClients: c.ctr.refusedClients.Load(),
		RatePushes:     c.ctr.ratePushes.Load(),
		PushShards:     c.ctr.pushShards.Load(),
		PushFailures:   c.ctr.pushFailures.Load(),
		Resyncs:        c.ctr.resyncs.Load(),
	}
}

type clientConn struct {
	c          net.Conn
	clk        Clock
	site       int  // valid once registered
	ver        int  // negotiated protocol version, valid once registered
	registered bool // hello handshake completed; both guarded by Controller.mu
	wt         time.Duration
	mu         sync.Mutex // serializes writes
}

func (cc *clientConn) send(m *Message) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.wt > 0 {
		cc.c.SetWriteDeadline(cc.clk.Now().Add(cc.wt))
	}
	if err := WriteMsg(cc.c, m); err != nil {
		// A write failure (dead or partitioned client) poisons the
		// connection; close it so the read side unblocks and cleans up.
		cc.c.Close()
		return err
	}
	return nil
}

// NewController builds a controller for the network.
//
// Deprecated: use NewServer with WithCoreConfig and WithSlotSeconds — the
// options constructor exposes the admission, liveness, and clock knobs.
func NewController(cfg core.Config, slotSeconds float64, st *store.Store) (*Controller, error) {
	return NewServer(context.Background(), st,
		WithCoreConfig(cfg), WithSlotSeconds(slotSeconds))
}

// newController is the shared constructor behind NewServer. The store may
// come from a previous (failed) controller instance, in which case
// outstanding transfers (and their submit tokens and ownership) are
// recovered from it.
func newController(ctx context.Context, st *store.Store, o serverOptions) (*Controller, error) {
	if st == nil {
		st = store.New()
	}
	c := &Controller{
		Net:          o.cfg.Net,
		SlotSeconds:  o.slotSeconds,
		readTO:       o.readTO,
		writeTO:      o.writeTO,
		clock:        o.clock,
		maxClients:   o.maxClients,
		admitGate:    o.admitGate,
		owan:         core.New(o.cfg),
		topo:         topology.InitialTopology(o.cfg.Net),
		transfers:    map[int]*transfer.Transfer{},
		owners:       map[int]int{},
		sites:        map[int]*clientConn{},
		tokens:       map[string]int{},
		tokenByID:    map[int]string{},
		failed:       map[int]bool{},
		resyncNeeded: map[int]bool{},
		conns:        map[*clientConn]bool{},
		done:         make(chan struct{}),
		st:           st,
	}
	// The hint scales with queue depth: a deeper queue takes longer to
	// drain, so shed clients should stay away longer.
	c.retryAfter = 10*time.Millisecond + time.Duration(o.queueDepth/16)*time.Millisecond
	if c.retryAfter > time.Second {
		c.retryAfter = time.Second
	}
	c.circuits = c.topo.TotalCircuits()
	if err := c.recover(); err != nil {
		return nil, err
	}
	c.admitSlot = c.slot
	c.shards = make([]*admitShard, o.shards)
	for i := range c.shards {
		c.shards[i] = &admitShard{jobs: make(chan admitJob, o.queueDepth)}
		c.wg.Add(1)
		go c.admitLoop(c.shards[i])
	}
	if ctx != nil && ctx.Done() != nil {
		// Lifetime watcher: context cancellation closes the server. Not in
		// the WaitGroup — it calls Close itself, which waits on the group.
		go func() {
			select {
			case <-ctx.Done():
				c.Close()
			case <-c.done:
			}
		}()
	}
	return c, nil
}

// shardFor maps an owning site onto its admission/push shard.
func (c *Controller) shardFor(site int) int {
	if site < 0 {
		site = -site
	}
	return site % len(c.shards)
}

// UpdatePlanStats summarizes the consistent update computed for a slot
// transition.
type UpdatePlanStats struct {
	Rounds  int
	Ops     int
	Seconds float64
	Detours int
	// Err is set when no consistent plan existed (the controller then
	// falls back to a one-shot update, as real deployments must).
	Err string
}

// LastUpdatePlan returns stats for the most recent slot transition.
func (c *Controller) LastUpdatePlan() UpdatePlanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPlan
}

// toUpdateState converts a computed network state into the update module's
// representation.
func (c *Controller) toUpdateState(st *core.NetworkState) *update.State {
	circuits := map[[2]int]int{}
	fibers := map[[2]int][]int{}
	for _, l := range st.Effective.Links() {
		k := [2]int{l.U, l.V}
		circuits[k] = l.Count
		fibers[k] = append([]int(nil), c.owan.FiberPathIDs(l.U, l.V)...)
	}
	// Flatten the allocation in sorted id order: map iteration would make
	// the route order — and with it the planner's victim choices and
	// summation order — vary run to run.
	ids := make([]int, 0, len(st.Alloc))
	for id := range st.Alloc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var routes []update.Route
	for _, id := range ids {
		for _, pr := range st.Alloc[id] {
			routes = append(routes, update.Route{TransferID: id, Path: pr.Path, Rate: pr.Rate})
		}
	}
	return &update.State{Circuits: circuits, CircuitFibers: fibers, Routes: routes}
}

// planUpdate builds the consistent rollout from the previous slot's state
// to next and returns its stats; ok is false when there is no previous state
// to roll out from (the first slot, or the first after a fiber cut). Slot-level
// state only: the caller holds slotMu.
func (c *Controller) planUpdate(next *update.State) (stats UpdatePlanStats, ok bool) {
	prev := c.prevUpdate
	c.prevUpdate = next
	if prev == nil {
		return UpdatePlanStats{}, false
	}
	used := map[int]int{}
	for k, n := range prev.Circuits {
		for _, fid := range prev.CircuitFibers[k] {
			used[fid] += n
		}
	}
	free := map[int]int{}
	for _, fb := range c.Net.Fibers {
		if f := fb.Wavelengths - used[fb.ID]; f > 0 {
			free[fb.ID] = f
		}
	}
	if c.updScratch == nil {
		c.updScratch = update.NewScratch()
	}
	plan, err := c.updScratch.BuildPlan(update.Config{Theta: c.Net.ThetaGbps, FiberFree: free}, prev, next)
	if err != nil {
		return UpdatePlanStats{Err: err.Error()}, true
	}
	return UpdatePlanStats{
		Rounds:  len(plan.Rounds),
		Ops:     plan.NumOps(),
		Seconds: plan.Seconds(),
		Detours: plan.ForcedDetours,
	}, true
}

// persistedTransfer is the store representation of a transfer. Site is
// the submitting client's site (-1 for in-process submissions) so a
// failover controller can re-adopt a reconnecting owner; Token is the
// idempotency token so a resubmission after failover maps to the same id.
type persistedTransfer struct {
	Req       transfer.Request `json:"req"`
	Remaining float64          `json:"remaining"`
	Done      bool             `json:"done"`
	Site      int              `json:"site"`
	Token     string           `json:"token,omitempty"`
}

// TransferRecord is the decoded durable form of one transfer record, for
// tools that audit the store directly (the load generator cross-checks
// every client-side ack against these records).
type TransferRecord struct {
	ID             int
	Site           int
	Token          string
	Done           bool
	SizeGbits      float64
	RemainingGbits float64
}

// DecodeTransferRecord decodes a store value written under a
// "transfer/" key.
func DecodeTransferRecord(b []byte) (TransferRecord, error) {
	var p persistedTransfer
	if err := json.Unmarshal(b, &p); err != nil {
		return TransferRecord{}, fmt.Errorf("controlplane: corrupt transfer record: %w", err)
	}
	return TransferRecord{
		ID: p.Req.ID, Site: p.Site, Token: p.Token, Done: p.Done,
		SizeGbits: p.Req.SizeGbits, RemainingGbits: p.Remaining,
	}, nil
}

// tKey keys a transfer record under its owning site, so a snapshot resync
// for one site is a single prefix scan of the store instead of a walk
// over every transfer ever admitted.
func tKey(site, id int) string { return fmt.Sprintf("transfer/s%d/%08d", site, id) }

// sitePrefix is the store key prefix holding one site's transfer records.
func sitePrefix(site int) string { return fmt.Sprintf("transfer/s%d/", site) }

// persistLocked captures a transfer's durable record (caller holds c.mu);
// marshalRecords turns the captures into a store batch once the lock is
// released.
func (c *Controller) persistLocked(t *transfer.Transfer) persistedTransfer {
	site, ok := c.owners[t.ID]
	if !ok {
		site = -1
	}
	return persistedTransfer{
		Req: t.Request, Remaining: t.Remaining, Done: t.Done,
		Site: site, Token: c.tokenByID[t.ID],
	}
}

// marshalRecords marshals captured records into a store batch, with room
// for one more entry.
func marshalRecords(recs ...persistedTransfer) []store.KV {
	kvs := make([]store.KV, 0, len(recs)+1)
	for _, p := range recs {
		b, err := json.Marshal(p)
		if err != nil {
			log.Printf("controlplane: persist transfer %d: %v", p.Req.ID, err)
			continue
		}
		kvs = append(kvs, store.KV{Key: tKey(p.Site, p.Req.ID), Value: b})
	}
	return kvs
}

// recover rebuilds in-memory transfer state from the store (controller
// failover: "we spawn a new instance, which starts to compute and
// reconfigure the network state at the next time slot"). The next-id
// counter resumes past the largest recovered id, so ids stay unique
// across takeovers; tokens and ownership come back with the transfers.
// Finished transfers come back as a count and a token only, the state a
// controller that had run those slots itself would hold.
func (c *Controller) recover() error {
	if b, ok := c.st.Get("meta/slot"); ok {
		if err := json.Unmarshal(b, &c.slot); err != nil {
			return err
		}
	}
	for _, k := range c.st.Keys("transfer/") {
		b, _ := c.st.Get(k)
		var p persistedTransfer
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("controlplane: corrupt transfer record %s: %w", k, err)
		}
		id := p.Req.ID
		if id >= c.nextID {
			c.nextID = id + 1
		}
		if p.Token != "" {
			c.tokens[p.Token] = id
		}
		if p.Done {
			// Finished: counted, and its token still answers a replay, but
			// it is not live state (as if commit had evicted it here).
			c.completed++
			continue
		}
		t := transfer.NewTransfer(p.Req)
		t.Remaining = p.Remaining
		c.transfers[id] = t
		if p.Site >= 0 {
			c.owners[id] = p.Site
		}
		if p.Token != "" {
			c.tokenByID[id] = p.Token
		}
	}
	return nil
}

// Serve accepts connections on lis until Close. It returns after the
// listener fails or is closed.
func (c *Controller) Serve(lis net.Listener) {
	c.mu.Lock()
	c.lis = lis
	c.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		cc := &clientConn{c: conn, clk: c.clock, wt: c.writeTO}
		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[cc] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(cc)
		}()
	}
}

// Addr returns the listener address (for tests).
func (c *Controller) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lis == nil {
		return nil
	}
	return c.lis.Addr()
}

// Close stops serving, closes all connections, and stops the admission
// shard workers and the evaluator pool. A Tick or FailFiber in flight is
// waited out, not cancelled; a Tick that starts afterwards is a no-op. Safe
// to call more than once.
func (c *Controller) Close() {
	c.mu.Lock()
	if !c.closing {
		c.closing = true
		close(c.done)
		if c.lis != nil {
			c.lis.Close()
		}
		for cc := range c.conns {
			cc.c.Close()
		}
	}
	c.mu.Unlock()
	c.slotMu.Lock()
	c.owan.Close()
	c.slotMu.Unlock()
	c.wg.Wait()
}

// readDeadline arms the dead-client detector before each read.
func (c *Controller) readDeadline(cc *clientConn) {
	if c.readTO > 0 {
		cc.c.SetReadDeadline(c.clock.Now().Add(c.readTO))
	}
}

// handshake runs the hello/welcome exchange: the first frame must be a
// MsgHello carrying a negotiable ProtoVersion. The controller speaks
// min(client, ProtoVersion); clients older than MinProtoVersion get a
// typed version-mismatch error before the connection closes — never a
// hang or a silent drop. A hello past the WithMaxClients cap draws a
// typed overloaded error with a retry-after hint.
func (c *Controller) handshake(cc *clientConn) bool {
	c.readDeadline(cc)
	m, err := ReadMsg(cc.c)
	if err != nil {
		return false
	}
	if m.Type != MsgHello {
		cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeProtocol,
			Err: fmt.Sprintf("first message must be %q, got %q", MsgHello, m.Type)})
		return false
	}
	ver := m.Version
	if ver > ProtoVersion {
		ver = ProtoVersion
	}
	if ver < MinProtoVersion {
		cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeVersionMismatch,
			Err: fmt.Sprintf("protocol version %d not supported (controller speaks %d..%d)", m.Version, MinProtoVersion, ProtoVersion)})
		return false
	}
	c.mu.Lock()
	if c.maxClients > 0 && c.nRegistered >= c.maxClients {
		c.mu.Unlock()
		c.ctr.refusedClients.Add(1)
		cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeOverloaded,
			RetryAfterMs: int(c.retryAfter / time.Millisecond),
			Err:          fmt.Sprintf("client cap reached (%d)", c.maxClients)})
		return false
	}
	cc.site = m.Site
	cc.ver = ver
	cc.registered = true
	c.nRegistered++
	// Adopt the connection as the site's rate-push target. Latest hello
	// wins: a client reconnecting after a network blip (or after this
	// controller took over from a failed one) re-owns its transfers here.
	c.sites[m.Site] = cc
	c.mu.Unlock()
	return cc.send(&Message{Type: MsgWelcome, Seq: m.Seq, Version: ver, Site: m.Site}) == nil
}

func (c *Controller) handle(cc *clientConn) {
	defer func() {
		cc.c.Close()
		c.mu.Lock()
		delete(c.conns, cc)
		if cc.registered {
			c.nRegistered--
			if c.sites[cc.site] == cc {
				delete(c.sites, cc.site)
			}
		}
		c.mu.Unlock()
	}()
	if !c.handshake(cc) {
		return
	}
	for {
		c.readDeadline(cc)
		m, err := ReadMsg(cc.c)
		if err != nil {
			return
		}
		switch m.Type {
		case MsgPing:
			cc.send(&Message{Type: MsgPong, Seq: m.Seq})

		case MsgHello:
			cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeProtocol, Err: "duplicate hello"})

		case MsgSubmit:
			if m.Request == nil {
				cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeBadRequest, Err: "submit without request"})
				continue
			}
			c.enqueueSubmit(cc, m)

		case MsgResync:
			if cc.ver < 2 {
				cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeProtocol,
					Err: "resync requires protocol version 2"})
				continue
			}
			snap := c.snapshotSite(cc.site)
			c.ctr.resyncs.Add(1)
			cc.send(&Message{Type: MsgSnapshot, Seq: m.Seq, Snapshot: snap})

		case MsgLinkFailure:
			if err := c.FailFiber(m.FiberID); err != nil {
				cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeUnknownFiber, Err: err.Error()})
				continue
			}
			cc.send(&Message{Type: MsgAck, Seq: m.Seq})

		case MsgStatus:
			c.mu.Lock()
			st := &WireStatus{
				Slot:      c.slot,
				Active:    c.activeCountLocked(),
				Completed: c.completed,
				Circuits:  c.circuits,
			}
			c.mu.Unlock()
			cc.send(&Message{Type: MsgStatusReply, Seq: m.Seq, Status: st})

		default:
			cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeProtocol, Err: "unknown message type " + string(m.Type)})
		}
	}
}

// enqueueSubmit routes a submission onto its site's admission shard, or
// sheds it with a typed overloaded error (plus retry-after hint) when the
// shard's bounded queue is full. The reader goroutine never blocks on
// admission, so a burst of submissions cannot wedge liveness handling.
func (c *Controller) enqueueSubmit(cc *clientConn, m *Message) {
	sh := c.shards[c.shardFor(cc.site)]
	select {
	case sh.jobs <- admitJob{cc: cc, seq: m.Seq, req: *m.Request, token: m.Token}:
	default:
		c.ctr.overloads.Add(1)
		cc.send(&Message{Type: MsgError, Seq: m.Seq, Code: ErrCodeOverloaded,
			RetryAfterMs: int(c.retryAfter / time.Millisecond),
			Err:          "admission queue full"})
	}
}

// admitLoop is one shard's worker: it drains queued submissions in
// batches, commits each batch under a single lock acquisition and a
// single store write, then acks outside the lock.
func (c *Controller) admitLoop(sh *admitShard) {
	defer c.wg.Done()
	batch := make([]admitJob, 0, admitBatchMax)
	for {
		select {
		case <-c.done:
			return
		case j := <-sh.jobs:
			if c.admitGate != nil {
				select {
				case <-c.admitGate:
				case <-c.done:
					return
				}
			}
			batch = append(batch[:0], j)
		drain:
			for len(batch) < admitBatchMax {
				select {
				case j2 := <-sh.jobs:
					batch = append(batch, j2)
				default:
					break drain
				}
			}
			c.admitBatch(batch)
		}
	}
}

// admitBatch commits a batch of submissions: one lock acquisition for the
// whole batch, one store write for every new record, acks strictly after
// the records are durable (so an acked submit always survives failover).
func (c *Controller) admitBatch(batch []admitJob) {
	type reply struct {
		cc *clientConn
		m  Message
	}
	replies := make([]reply, 0, len(batch))
	recs := make([]persistedTransfer, 0, len(batch))
	admitted := 0
	c.mu.Lock()
	for _, j := range batch {
		id, rec, fresh, err := c.submitLocked(j.req, j.cc.site, j.token)
		if err != nil {
			replies = append(replies, reply{j.cc, Message{Type: MsgError, Seq: j.seq, Code: ErrCodeBadRequest, Err: err.Error()}})
			continue
		}
		if fresh {
			recs = append(recs, rec)
		}
		admitted++
		replies = append(replies, reply{j.cc, Message{Type: MsgSubmitAck, Seq: j.seq, ID: id}})
	}
	c.mu.Unlock()
	c.st.PutBatch(marshalRecords(recs...))
	// Count before acking: once a client holds an ack, the counters must
	// already reflect its admission.
	c.ctr.admitted.Add(uint64(admitted))
	c.ctr.admitBatches.Add(1)
	for i := range replies {
		replies[i].cc.send(&replies[i].m)
	}
}

func (c *Controller) activeCountLocked() int {
	n := 0
	for _, t := range c.transfers {
		if t.Arrival <= c.slot {
			n++
		}
	}
	return n
}

// Submit registers a transfer directly (in-process submission with no
// owning client connection) and returns its id.
func (c *Controller) Submit(r WireRequest) (int, error) {
	return c.submit(r, -1, "")
}

// submit registers a transfer request synchronously (in-process callers
// and tests; the wire path batches through admitBatch instead).
func (c *Controller) submit(r WireRequest, site int, token string) (int, error) {
	c.mu.Lock()
	id, rec, fresh, err := c.submitLocked(r, site, token)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if fresh {
		c.st.PutBatch(marshalRecords(rec))
	}
	return id, nil
}

// submitLocked registers a transfer request for a site and returns its id
// plus the durable record to write (fresh is false when the submission was
// an idempotent replay and there is nothing to write). site -1 means no
// owner. A non-empty token makes the call idempotent: resubmitting a token
// the controller has already seen — including one recovered from the store
// after failover, or one whose transfer has finished — returns the original
// id without creating a duplicate transfer.
//
// The transfer arrives in admitSlot, the first slot that can schedule it: a
// submit admitted while a Tick is searching slot s was not in that slot's
// demand snapshot, so it arrives — and its deadline counts — from s+1.
func (c *Controller) submitLocked(r WireRequest, site int, token string) (id int, rec persistedTransfer, fresh bool, err error) {
	if token != "" {
		if id, ok := c.tokens[token]; ok {
			return id, persistedTransfer{}, false, nil
		}
	}
	req := transfer.Request{
		ID:        c.nextID,
		Src:       r.Src,
		Dst:       r.Dst,
		SizeGbits: r.SizeGbits,
		Arrival:   c.admitSlot,
		Deadline:  transfer.NoDeadline,
	}
	if r.DeadlineSlots > 0 {
		req.Deadline = c.admitSlot + r.DeadlineSlots
	}
	if r.Src < 0 || r.Src >= c.Net.NumSites() || r.Dst < 0 || r.Dst >= c.Net.NumSites() {
		return 0, persistedTransfer{}, false, fmt.Errorf("site out of range")
	}
	if err := req.Validate(); err != nil {
		return 0, persistedTransfer{}, false, err
	}
	c.nextID++
	t := transfer.NewTransfer(req)
	c.transfers[req.ID] = t
	if site >= 0 {
		c.owners[req.ID] = site
	}
	if token != "" {
		c.tokens[token] = req.ID
		c.tokenByID[req.ID] = token
	}
	return req.ID, c.persistLocked(t), true, nil
}

// snapshotSite builds the resync snapshot for a site by replaying the
// site's transfer records straight from the replicated store — the same
// durable state a failover successor recovers from — so the client's view
// after one round trip matches what any controller generation would
// serve. Finished transfers are skipped (their final rate push already
// went out or never will); entries are id-sorted and capped to fit the
// frame limit.
func (c *Controller) snapshotSite(site int) *WireSnapshot {
	recs := c.st.SnapshotPrefix(sitePrefix(site))
	c.mu.Lock()
	snap := &WireSnapshot{Slot: c.slot}
	delete(c.resyncNeeded, site)
	c.mu.Unlock()
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys) // key embeds the zero-padded id: id order
	for _, k := range keys {
		var p persistedTransfer
		if err := json.Unmarshal(recs[k], &p); err != nil {
			log.Printf("controlplane: corrupt transfer record %s in resync: %v", k, err)
			continue
		}
		if p.Done {
			continue
		}
		if len(snap.Pending) >= snapMaxEntries {
			snap.Truncated = true
			break
		}
		snap.Pending = append(snap.Pending, SnapshotTransfer{
			ID:             p.Req.ID,
			Token:          p.Token,
			Src:            p.Req.Src,
			Dst:            p.Req.Dst,
			SizeGbits:      p.Req.SizeGbits,
			RemainingGbits: p.Remaining,
		})
	}
	return snap
}

// ResyncPending returns the sites whose last rate push was dropped and
// that have not resynced since (sorted; for tests and operators).
func (c *Controller) ResyncPending() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.resyncNeeded))
	for s := range c.resyncNeeded {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// FailFiber removes a fiber from the physical network and rebuilds the
// optimizer so subsequent slots avoid it. The current topology is kept;
// circuits that can no longer be provisioned simply lose capacity in the
// next ProvisionTopology pass, and the annealing search routes around them.
//
// It is a slot-level operation: a search in flight is waited out (the slot
// it was computing still lands on the network it started on) and the next
// Tick is the first on the reduced network. The route-table repair runs
// under slotMu alone, so a cut stalls admission no more than a search does.
func (c *Controller) FailFiber(fiberID int) error {
	c.slotMu.Lock()
	defer c.slotMu.Unlock()
	if c.failed[fiberID] {
		// Already failed: reports are idempotent so a client retrying
		// after a lost ack (or several sites noticing the same failure)
		// succeeds.
		return nil
	}
	nw := c.owan.WithoutFiber(fiberID)
	if nw == c.owan {
		return fmt.Errorf("unknown fiber %d", fiberID)
	}
	c.failed[fiberID] = true
	// The replaced core's evaluator goroutines are done; its provision cache
	// and route tables live on in the new one.
	c.owan.Close()
	c.owan = nw
	// Fiber ids changed meaning: drop the previous update state rather
	// than diff across different physical networks.
	c.prevUpdate = nil
	c.mu.Lock()
	c.Net = nw.Net()
	c.mu.Unlock()
	return nil
}

// Tick advances one time slot: computes the network state for the live
// transfers, pushes rate allocations to the submitting clients, and
// advances fluid progress accounting. It returns the search stats.
//
// A slot runs in three phases, so that admission never waits out a search.
// Snapshot, under mu: pick the transfers that have arrived by this slot and
// move admitSlot on, so whatever is admitted from here arrives in the next
// one. Search and plan, under slotMu alone: order the demand, anneal, plan
// the consistent update — the transfers in the snapshot are only read, and
// only a commit ever writes them. Commit, under mu: advance the transfers
// that were given a rate, evict the finished, publish the slot. The work
// under mu is O(live) pointer copies in the snapshot and O(served) in the
// commit; records are marshalled and written after it is released, and only
// for transfers whose state changed (an unserved transfer's record would be
// byte-identical to the one in the store).
//
// Rate pushes are routed by owning *site*, not by the connection that
// submitted: a client that reconnected (possibly to a standby controller
// that took over this store) is re-adopted at its next hello and keeps
// receiving allocations for its in-flight transfers. Pushes happen after
// both locks are released and fan out one goroutine per admission
// shard; each send is bounded by WriteTimeout, and a send that fails
// (slow, partitioned, or dead client) drops the connection and marks the
// site for snapshot resync instead of stalling the rest of its shard.
func (c *Controller) Tick() core.SearchStats {
	c.slotMu.Lock()

	// Snapshot.
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		c.slotMu.Unlock()
		return core.SearchStats{}
	}
	slot := c.slot
	active := make([]*transfer.Transfer, 0, len(c.transfers))
	for _, t := range c.transfers {
		if t.Arrival <= slot {
			active = append(active, t)
		}
	}
	c.admitSlot = slot + 1
	c.mu.Unlock()

	// Search and plan.
	transfer.Order(active, transfer.SJF, slot, 0) // deterministic order
	st := c.owan.ComputeNetworkState(c.topo, active, slot, c.SlotSeconds)
	c.topo = st.Topology
	plan, planned := c.planUpdate(c.toUpdateState(st))
	served := active[:0]
	for _, t := range active {
		if len(st.Alloc[t.ID]) > 0 {
			served = append(served, t)
		}
	}
	circuits := st.Topology.TotalCircuits()

	// Commit.
	now := float64(slot) * c.SlotSeconds
	perConn := map[*clientConn][]WireRate{}
	recs := make([]persistedTransfer, 0, len(served))
	c.mu.Lock()
	for _, t := range served {
		t.Alloc = st.Alloc[t.ID]
		if site, ok := c.owners[t.ID]; ok {
			if cc := c.sites[site]; cc != nil {
				for _, pr := range t.Alloc {
					perConn[cc] = append(perConn[cc], WireRate{TransferID: t.ID, Path: pr.Path, RateGbps: pr.Rate})
				}
			}
		}
		sent := t.Advance(now, c.SlotSeconds, slot)
		if t.Deadline != transfer.NoDeadline && slot <= t.Deadline {
			t.DeliveredByDeadline += sent
		}
		t.Alloc = nil
		if sent > 0 {
			recs = append(recs, c.persistLocked(t))
		}
		if t.Done {
			c.completed++
			delete(c.transfers, t.ID)
			delete(c.owners, t.ID)
			delete(c.tokenByID, t.ID)
		}
	}
	c.slot++
	c.circuits = circuits
	if planned {
		c.lastPlan = plan
	}
	c.mu.Unlock()

	// The store write stays under slotMu so that two slots' records can
	// never land out of order.
	kvs := marshalRecords(recs...)
	if b, err := json.Marshal(slot + 1); err == nil {
		kvs = append(kvs, store.KV{Key: "meta/slot", Value: b})
	}
	c.st.PutBatch(kvs)
	c.slotMu.Unlock()

	c.pushRates(perConn)
	return st.Stats
}

// pushRates fans the slot's allocations out per shard: connections hash
// onto shards by site, each shard flushes its batch on its own goroutine,
// and a failed send (write timeout, dead connection) marks that site for
// resync without delaying the shard's remaining clients more than its
// own WriteTimeout.
func (c *Controller) pushRates(perConn map[*clientConn][]WireRate) {
	if len(perConn) == 0 {
		return
	}
	type push struct {
		cc    *clientConn
		rates []WireRate
	}
	groups := make([][]push, len(c.shards))
	for cc, rates := range perConn {
		i := c.shardFor(cc.site)
		groups[i] = append(groups[i], push{cc, rates})
	}
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failedSites []int
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		c.ctr.pushShards.Add(1)
		wg.Add(1)
		go func(g []push) {
			defer wg.Done()
			for _, p := range g {
				if err := p.cc.send(&Message{Type: MsgRates, Rates: p.rates}); err != nil {
					c.ctr.pushFailures.Add(1)
					failMu.Lock()
					failedSites = append(failedSites, p.cc.site)
					failMu.Unlock()
					continue
				}
				c.ctr.ratePushes.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if len(failedSites) > 0 {
		c.mu.Lock()
		for _, s := range failedSites {
			c.resyncNeeded[s] = true
		}
		c.mu.Unlock()
	}
}

// NextID returns the id the next submitted transfer will receive. After
// failover it has resumed past every recovered transfer, so ids stay
// unique across controller generations.
func (c *Controller) NextID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextID
}

// Slot returns the next slot index.
func (c *Controller) Slot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slot
}

// Completed returns how many transfers have finished.
func (c *Controller) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// Store returns the controller's durable store (shared with replicas).
func (c *Controller) Store() *store.Store { return c.st }
