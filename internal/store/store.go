// Package store provides the small replicated key-value store the Owan
// controller uses for failover (§3.4): because the scheduling algorithm is
// stateless, persisting only the physical network and the set of transfers
// lets a fresh controller instance resume at the next time slot.
//
// The store keeps an append-only log of mutations; replicas apply the log
// through Sync. There is no consensus protocol — the paper assumes "a
// reliable distributed storage", so the store models a primary plus warm
// replicas that can be promoted.
package store

import (
	"fmt"
	"sync"
)

// Entry is one mutation in the log.
type Entry struct {
	Seq   uint64
	Key   string
	Value []byte // nil means delete
}

// Store is a thread-safe KV store with an append-only replication log.
type Store struct {
	mu   sync.RWMutex
	data map[string][]byte
	log  []Entry
}

// New returns an empty store.
func New() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Put stores a copy of value under key.
func (s *Store) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := append([]byte(nil), value...)
	s.data[key] = v
	s.log = append(s.log, Entry{Seq: uint64(len(s.log) + 1), Key: key, Value: v})
}

// KV is one key/value pair for batch writes.
type KV struct {
	Key   string
	Value []byte
}

// PutBatch stores every pair under a single lock acquisition and appends
// them to the replication log in order. The controller's admission
// pipeline uses this to make a whole batch of submissions durable with
// one store round trip; an empty batch is a no-op.
func (s *Store) PutBatch(kvs []KV) {
	if len(kvs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, kv := range kvs {
		v := append([]byte(nil), kv.Value...)
		s.data[kv.Key] = v
		s.log = append(s.log, Entry{Seq: uint64(len(s.log) + 1), Key: kv.Key, Value: v})
	}
}

// SnapshotPrefix returns a copy of every key/value with the given prefix
// under one lock acquisition — a consistent point-in-time view. The
// controller's snapshot resync reads a site's transfer records this way,
// so the snapshot a client converges on is exactly the durable state a
// failover successor would recover.
func (s *Store) SnapshotPrefix(prefix string) map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string][]byte{}
	for k, v := range s.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = append([]byte(nil), v...)
		}
	}
	return out
}

// Get returns a copy of the value and whether it exists.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Keys returns all keys with the given prefix.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	return out
}

// Seq returns the sequence number of the latest log entry.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.log))
}

// EntriesSince returns log entries with Seq > after.
func (s *Store) EntriesSince(after uint64) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if after > uint64(len(s.log)) {
		return nil
	}
	return append([]Entry(nil), s.log[after:]...)
}

// Apply replays entries onto the store (replica side). Entries must be
// contiguous with the replica's current sequence.
func (s *Store) Apply(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if e.Seq != uint64(len(s.log))+1 {
			return fmt.Errorf("store: gap in log: have %d, got entry %d", len(s.log), e.Seq)
		}
		if e.Value == nil {
			delete(s.data, e.Key)
		} else {
			s.data[e.Key] = append([]byte(nil), e.Value...)
		}
		s.log = append(s.log, e)
	}
	return nil
}

// Sync brings a replica up to date with the primary.
func Sync(primary, replica *Store) error {
	return replica.Apply(primary.EntriesSince(replica.Seq()))
}
