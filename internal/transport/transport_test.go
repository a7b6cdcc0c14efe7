package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

type collector struct {
	mu   sync.Mutex
	msgs []wire.Envelope
	wg   *sync.WaitGroup
}

func (c *collector) handle(env wire.Envelope) {
	c.mu.Lock()
	c.msgs = append(c.msgs, env)
	c.mu.Unlock()
	if c.wg != nil {
		c.wg.Done()
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func TestMemBasicDelivery(t *testing.T) {
	m := NewMem(MemOptions{})
	defer m.Close()
	var wg sync.WaitGroup
	c := &collector{wg: &wg}
	if err := m.Register("B", c.handle); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	wg.Add(3)
	for i := 0; i < 3; i++ {
		if err := m.Send("A", "B", wire.StartUpdate{Epoch: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.count() != 3 {
		t.Fatalf("delivered %d", c.count())
	}
	if c.msgs[0].From != "A" || c.msgs[0].To != "B" {
		t.Errorf("addressing: %+v", c.msgs[0])
	}
}

func TestMemUnknownPeer(t *testing.T) {
	m := NewMem(MemOptions{})
	defer m.Close()
	if err := m.Send("A", "ghost", wire.StartUpdate{}); err == nil {
		t.Error("send to unknown peer must error")
	}
	if err := m.Register("A", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("A", func(wire.Envelope) {}); err == nil {
		t.Error("double register must error")
	}
}

func TestMemSerialPerNode(t *testing.T) {
	// Handlers for one node must never run concurrently.
	m := NewMem(MemOptions{})
	defer m.Close()
	var inHandler, maxConcurrent int32
	var wg sync.WaitGroup
	if err := m.Register("B", func(wire.Envelope) {
		cur := atomic.AddInt32(&inHandler, 1)
		for {
			prev := atomic.LoadInt32(&maxConcurrent)
			if cur <= prev || atomic.CompareAndSwapInt32(&maxConcurrent, prev, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inHandler, -1)
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	_ = m.Register("A", func(wire.Envelope) {})
	wg.Add(10)
	for i := 0; i < 10; i++ {
		_ = m.Send("A", "B", wire.StartUpdate{})
	}
	wg.Wait()
	if atomic.LoadInt32(&maxConcurrent) != 1 {
		t.Fatalf("handler concurrency = %d", maxConcurrent)
	}
}

func TestMemQuiescence(t *testing.T) {
	m := NewMem(MemOptions{})
	defer m.Close()
	// B forwards each message to C once; C does nothing.
	_ = m.Register("A", func(wire.Envelope) {})
	_ = m.Register("C", func(env wire.Envelope) { time.Sleep(2 * time.Millisecond) })
	_ = m.Register("B", func(env wire.Envelope) {
		_ = m.Send("B", "C", env.Msg)
	})
	for i := 0; i < 5; i++ {
		_ = m.Send("A", "B", wire.StartUpdate{Epoch: uint64(i)})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Inflight() != 0 {
		t.Fatalf("inflight = %d after quiescence", m.Inflight())
	}
}

func TestMemQuiescenceWithDelays(t *testing.T) {
	m := NewMem(MemOptions{Seed: 7, MaxDelay: 3 * time.Millisecond})
	defer m.Close()
	var got int32
	_ = m.Register("A", func(wire.Envelope) {})
	_ = m.Register("B", func(wire.Envelope) { atomic.AddInt32(&got, 1) })
	for i := 0; i < 20; i++ {
		_ = m.Send("A", "B", wire.StartUpdate{})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&got) != 20 {
		t.Fatalf("delivered %d/20 despite quiescence", got)
	}
}

func TestMemPartitionAndHeal(t *testing.T) {
	m := NewMem(MemOptions{})
	defer m.Close()
	var got int32
	_ = m.Register("A", func(wire.Envelope) {})
	_ = m.Register("B", func(wire.Envelope) { atomic.AddInt32(&got, 1) })
	m.Partition("A", "B")
	if err := m.Send("A", "B", wire.StartUpdate{}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("send across a partition = %v, want ErrPartitioned", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = m.WaitQuiescent(ctx)
	if atomic.LoadInt32(&got) != 0 {
		t.Fatal("partition leaked a message")
	}
	if m.Dropped() != 1 {
		t.Fatalf("dropped = %d", m.Dropped())
	}
	m.Heal("A", "B")
	_ = m.Send("A", "B", wire.StartUpdate{})
	_ = m.WaitQuiescent(ctx)
	if atomic.LoadInt32(&got) != 1 {
		t.Fatal("healed link should deliver")
	}
}

func TestMemSynchronousRounds(t *testing.T) {
	m := NewMem(MemOptions{Synchronous: true})
	defer m.Close()
	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	_ = m.Register("A", func(wire.Envelope) {})
	_ = m.Register("C", func(env wire.Envelope) { record("C") })
	_ = m.Register("B", func(env wire.Envelope) {
		record("B")
		_ = m.Send("B", "C", env.Msg) // goes to next round
	})
	_ = m.Send("A", "B", wire.StartUpdate{})

	if n := m.Step(); n != 1 {
		t.Fatalf("round 1 delivered %d", n)
	}
	mu.Lock()
	afterRound1 := len(order)
	mu.Unlock()
	if afterRound1 != 1 || order[0] != "B" {
		t.Fatalf("after round 1: %v", order)
	}
	if n := m.Step(); n != 1 {
		t.Fatalf("round 2 delivered %d", n)
	}
	if n := m.Step(); n != 0 {
		t.Fatalf("round 3 should be empty, delivered %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[1] != "C" {
		t.Fatalf("order = %v", order)
	}
}

func TestMemStepAll(t *testing.T) {
	m := NewMem(MemOptions{Synchronous: true})
	defer m.Close()
	hops := 0
	_ = m.Register("A", func(env wire.Envelope) {
		if hops < 5 {
			hops++
			_ = m.Send("A", "A", wire.StartUpdate{})
		}
	})
	_ = m.Send("A", "A", wire.StartUpdate{})
	rounds := 0
	for rounds < 100 && m.Step() > 0 {
		rounds++
	}
	if rounds != 6 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestMemCloseDiscardsQueued(t *testing.T) {
	m := NewMem(MemOptions{Synchronous: true})
	_ = m.Register("A", func(wire.Envelope) {})
	_ = m.Register("B", func(wire.Envelope) {})
	_ = m.Send("A", "B", wire.StartUpdate{})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Send("A", "B", wire.StartUpdate{}); err == nil {
		t.Error("send after close must error")
	}
	if err := m.Close(); err != nil {
		t.Error("double close must be fine")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	serverT, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer serverT.Close()
	var wg sync.WaitGroup
	c := &collector{wg: &wg}
	if err := serverT.Register("S", c.handle); err != nil {
		t.Fatal(err)
	}

	clientT, err := NewTCP("127.0.0.1:0", map[string]string{"S": serverT.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer clientT.Close()
	if err := clientT.Register("C", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}

	wg.Add(2)
	if err := clientT.Send("C", "S", wire.Query{RuleID: "r1", Path: []string{"C"}}); err != nil {
		t.Fatal(err)
	}
	if err := clientT.Send("C", "S", wire.StartUpdate{Epoch: 9}); err != nil {
		t.Fatal(err)
	}
	waitTimeout(t, &wg, 5*time.Second)

	if c.count() != 2 {
		t.Fatalf("server got %d messages", c.count())
	}
	q, ok := c.msgs[0].Msg.(wire.Query)
	if !ok || q.RuleID != "r1" {
		t.Fatalf("first message = %#v", c.msgs[0].Msg)
	}
}

func TestTCPLocalShortCircuit(t *testing.T) {
	tt, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()
	var wg sync.WaitGroup
	c := &collector{wg: &wg}
	_ = tt.Register("A", func(wire.Envelope) {})
	_ = tt.Register("B", c.handle)
	wg.Add(1)
	if err := tt.Send("A", "B", wire.StartUpdate{}); err != nil {
		t.Fatal(err)
	}
	waitTimeout(t, &wg, 2*time.Second)
	if c.count() != 1 {
		t.Fatal("local delivery failed")
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	tt, err := NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()
	_ = tt.Register("A", func(wire.Envelope) {})
	if err := tt.Send("A", "nowhere", wire.StartUpdate{}); err == nil {
		t.Error("unknown peer must error")
	}
}

func waitTimeout(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out waiting for deliveries")
	}
}
