package store

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if _, ok := s.Get("a"); ok {
		t.Error("empty store returned a value")
	}
	s.Put("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Errorf("got %q %v", v, ok)
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Error("deleted key still present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("a", []byte("abc"))
	v, _ := s.Get("a")
	v[0] = 'z'
	v2, _ := s.Get("a")
	if string(v2) != "abc" {
		t.Error("mutation leaked into store")
	}
}

func TestKeysPrefix(t *testing.T) {
	s := New()
	s.Put("transfer/1", nil)
	s.Put("transfer/2", nil)
	s.Put("meta/slot", nil)
	ks := s.Keys("transfer/")
	if len(ks) != 2 {
		t.Errorf("keys = %v", ks)
	}
}

func TestPutBatch(t *testing.T) {
	s := New()
	s.PutBatch(nil) // no-op, no log entry
	if s.Seq() != 0 {
		t.Errorf("empty batch logged: seq = %d", s.Seq())
	}
	src := []byte("abc")
	s.PutBatch([]KV{
		{Key: "transfer/s1/1", Value: src},
		{Key: "transfer/s1/2", Value: []byte("def")},
		{Key: "meta/slot", Value: []byte("7")},
	})
	if s.Seq() != 3 {
		t.Errorf("seq = %d, want 3", s.Seq())
	}
	// Batch values are copied, not aliased.
	src[0] = 'z'
	if v, _ := s.Get("transfer/s1/1"); string(v) != "abc" {
		t.Errorf("batch aliased caller's buffer: %q", v)
	}
	// Batched entries replicate like individual Puts.
	r := New()
	if err := Sync(s, r); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get("transfer/s1/2"); string(v) != "def" {
		t.Errorf("replica missing batched key: %q", v)
	}
}

func TestSnapshotPrefix(t *testing.T) {
	s := New()
	s.Put("transfer/s1/1", []byte("a"))
	s.Put("transfer/s1/2", []byte("b"))
	s.Put("transfer/s2/1", []byte("c"))
	s.Put("meta/slot", []byte("0"))
	snap := s.SnapshotPrefix("transfer/s1/")
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v, want 2 keys", snap)
	}
	if string(snap["transfer/s1/1"]) != "a" || string(snap["transfer/s1/2"]) != "b" {
		t.Errorf("snapshot = %v", snap)
	}
	// The snapshot is a copy: later writes don't leak in, and mutating
	// the returned values doesn't corrupt the store.
	s.Put("transfer/s1/3", []byte("d"))
	if len(snap) != 2 {
		t.Error("snapshot observed a later write")
	}
	snap["transfer/s1/1"][0] = 'z'
	if v, _ := s.Get("transfer/s1/1"); string(v) != "a" {
		t.Errorf("mutation leaked into store: %q", v)
	}
	if got := s.SnapshotPrefix("nope/"); len(got) != 0 {
		t.Errorf("snapshot of absent prefix = %v", got)
	}
}

func TestReplication(t *testing.T) {
	p := New()
	r := New()
	p.Put("a", []byte("1"))
	p.Put("b", []byte("2"))
	p.Delete("a")
	if err := Sync(p, r); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("a"); ok {
		t.Error("replica has deleted key")
	}
	if v, _ := r.Get("b"); string(v) != "2" {
		t.Error("replica missing key")
	}
	// Incremental sync.
	p.Put("c", []byte("3"))
	if err := Sync(p, r); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get("c"); string(v) != "3" {
		t.Error("incremental sync failed")
	}
	if r.Seq() != p.Seq() {
		t.Errorf("seq mismatch %d != %d", r.Seq(), p.Seq())
	}
}

func TestApplyRejectsGap(t *testing.T) {
	r := New()
	if err := r.Apply([]Entry{{Seq: 5, Key: "x", Value: []byte("1")}}); err == nil {
		t.Error("gap accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k%d", i)
				s.Put(key, []byte{byte(j)})
				s.Get(key)
				s.Keys("k")
			}
		}(i)
	}
	wg.Wait()
	if s.Seq() != 800 {
		t.Errorf("seq = %d, want 800", s.Seq())
	}
}

// Delete removes a key (a no-op if absent, still logged for replicas).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	s.log = append(s.log, Entry{Seq: uint64(len(s.log) + 1), Key: key, Value: nil})
}
