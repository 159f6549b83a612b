package controlplane

import (
	"context"
	"fmt"
	"net"
	"sync"

	"owan/internal/dataplane"
)

// Agent is a full site agent: it submits transfers to the controller AND
// moves real bytes to peer agents over TCP, enforcing the controller's
// per-slot rate allocations with token-bucket limiters (the role Linux
// Traffic Control plays on the paper's testbed hosts).
type Agent struct {
	Site int
	// BytesPerGbit scales controller gigabits to wire bytes so demos can
	// run scaled-down transfers in real time (1 Gbit modelled as, say,
	// 100 kB). The rate allocations scale identically, preserving relative
	// completion times.
	BytesPerGbit float64

	client *Client
	recv   *dataplane.Receiver
	lis    net.Listener

	mu      sync.Mutex
	peers   map[int]string // site -> data address
	streams map[int]*stream
	wg      sync.WaitGroup
	cancel  context.CancelFunc
	ctx     context.Context
}

type stream struct {
	lim  *dataplane.Limiter
	done chan struct{}
	sent int64
	err  error
}

// NewAgent connects to the controller, registers the site, and starts the
// data-plane receiver on dataLis. peers maps site ids to the data
// addresses of other agents.
func NewAgent(ctrlAddr string, site int, dataLis net.Listener, peers map[int]string, bytesPerGbit float64) (*Agent, error) {
	if bytesPerGbit <= 0 {
		return nil, fmt.Errorf("controlplane: bytesPerGbit must be positive")
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		Site:         site,
		BytesPerGbit: bytesPerGbit,
		recv:         dataplane.NewReceiver(dataLis),
		lis:          dataLis,
		peers:        peers,
		streams:      map[int]*stream{},
		ctx:          ctx,
		cancel:       cancel,
	}
	cl, err := Dial(ctx, ctrlAddr, WithSite(site), WithOnRates(a.onRates), WithOnResync(a.onResync))
	if err != nil {
		cancel()
		a.recv.Close()
		return nil, err
	}
	a.client = cl
	return a, nil
}

// onRates applies the controller's allocation: the per-transfer rate is
// the sum over its paths (the data plane rides the network layer; path
// splitting happens inside the WAN).
func (a *Agent) onRates(rates []WireRate) {
	perTransfer := map[int]float64{}
	for _, r := range rates {
		perTransfer[r.TransferID] += r.RateGbps
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, s := range a.streams {
		// Transfers with no allocation this slot pause.
		gbps := perTransfer[id]
		s.lim.SetRate(gbps * a.BytesPerGbit)
	}
}

// onResync reconciles local streams against the controller's durable
// snapshot after a (re)connect. A transfer the controller has already
// marked done but whose local stream is still throttled gets its valve
// opened wide so the tail drains — the controller stops pushing rates
// for finished transfers, which would otherwise strand the last bytes
// at the pre-failover rate.
func (a *Agent) onResync(snap *WireSnapshot) {
	state := map[int]SnapshotTransfer{}
	for _, t := range snap.Pending {
		state[t.ID] = t
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, s := range a.streams {
		select {
		case <-s.done:
			continue
		default:
		}
		if t, ok := state[id]; !ok || t.Done {
			s.lim.SetRate(1e12)
		}
	}
}

// Transfer submits a request and streams the scaled payload to the
// destination agent. It returns the controller-assigned transfer id; the
// stream completes asynchronously (wait with WaitTransfer).
func (a *Agent) Transfer(dst int, gbits float64, deadlineSlots int) (int, error) {
	addr, ok := a.peers[dst]
	if !ok {
		return 0, fmt.Errorf("controlplane: no data address for site %d", dst)
	}
	id, err := a.client.Submit(a.ctx, WireRequest{Src: a.Site, Dst: dst, SizeGbits: gbits, DeadlineSlots: deadlineSlots})
	if err != nil {
		return 0, err
	}
	// Start paused; the first rate push opens the valve.
	lim, err := dataplane.NewLimiter(1, float64(32<<10), nil)
	if err != nil {
		return 0, err
	}
	lim.SetRate(0)
	s := &stream{lim: lim, done: make(chan struct{})}
	a.mu.Lock()
	a.streams[id] = s
	a.mu.Unlock()

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		defer close(s.done)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			s.err = err
			return
		}
		defer conn.Close()
		length := int64(gbits * a.BytesPerGbit)
		s.sent, s.err = dataplane.Send(a.ctx, conn, uint64(id), length, lim)
	}()
	return id, nil
}

// Receipt returns the received-bytes record for a transfer arriving at
// this agent.
func (a *Agent) Receipt(id int) (dataplane.Receipt, bool) {
	return a.recv.Receipt(uint64(id))
}

// Close tears down the agent.
func (a *Agent) Close() {
	a.cancel()
	a.client.Close()
	a.wg.Wait()
	a.recv.Close()
}
