package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"owan/internal/core"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// wireSamples holds one message of every MsgType, populated the way the
// client and controller populate it.
func wireSamples() []*Message {
	return []*Message{
		{Type: MsgHello, Seq: 1, Version: ProtoVersion, Site: 3},
		{Type: MsgWelcome, Seq: 1, Version: ProtoVersion},
		{Type: MsgSubmit, Seq: 2, Token: "c1-7", Request: &WireRequest{Src: 0, Dst: 5, SizeGbits: 4000, DeadlineSlots: 3}},
		{Type: MsgSubmitAck, Seq: 2, ID: 17},
		{Type: MsgRates, Rates: []WireRate{{TransferID: 17, Path: []int{0, 2, 5}, RateGbps: 42.5}}},
		{Type: MsgLinkFailure, Seq: 3, FiberID: 4},
		{Type: MsgStatus, Seq: 4},
		{Type: MsgStatusReply, Seq: 4, Status: &WireStatus{Slot: 9, Active: 3, Completed: 2, Circuits: 40}},
		{Type: MsgPing, Seq: 5},
		{Type: MsgPong, Seq: 5},
		{Type: MsgAck, Seq: 3},
		{Type: MsgError, Seq: 2, Code: ErrCodeOverloaded, Err: "admission queue full", RetryAfterMs: 74},
		{Type: MsgResync, Seq: 6},
		{Type: MsgSnapshot, Seq: 6, Snapshot: &WireSnapshot{Slot: 9, Truncated: true, Pending: []SnapshotTransfer{
			{ID: 17, Token: "c1-7", Src: 0, Dst: 5, SizeGbits: 4000, RemainingGbits: 1200.5},
		}}},
	}
}

// FuzzReadMsg feeds arbitrary bytes to the frame decoder. No input may
// panic, and re-framing is a fixed point: a message ReadMsg accepts, written
// back with WriteMsg and read again, writes the same bytes the second time.
// The first write may only fail as too large, because json.Marshal escapes
// <, > and & that a peer may have sent raw. The committed corpus
// (testdata/fuzz/FuzzReadMsg) adds faultnet-style single-byte corruptions
// of these frames — in the length, the checksum and the payload — and a
// hand-framed payload with raw <, > and &.
func FuzzReadMsg(f *testing.F) {
	for _, m := range wireSamples() {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := ReadMsg(bytes.NewReader(frame))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteMsg(&first, m); err != nil {
			if !strings.Contains(err.Error(), "frame too large") {
				t.Fatalf("accepted frame % x does not re-encode: %v", frame, err)
			}
			return
		}
		again, err := ReadMsg(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-framed %q does not decode: %v", first.Bytes()[8:], err)
		}
		if err := WriteMsg(&second, again); err != nil {
			t.Fatalf("re-framed %q does not re-encode: %v", first.Bytes()[8:], err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-framing is not a fixed point:\n first  %q\n second %q", first.Bytes()[8:], second.Bytes()[8:])
		}
	})
}

// transferRecords returns the records persistLocked wrote for a live, a
// finished, an owned and a tokened transfer, in key order, one slot in.
func transferRecords(f *testing.F) [][]byte {
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 20}),
		WithSlotSeconds(10))
	if err != nil {
		f.Fatal(err)
	}
	defer ctrl.Close()
	for _, sub := range []struct {
		r     WireRequest
		site  int
		token string
	}{
		{WireRequest{Src: 0, Dst: 8, SizeGbits: 1e6, DeadlineSlots: 3}, -1, ""},
		{WireRequest{Src: 1, Dst: 2, SizeGbits: 1}, -1, ""},
		{WireRequest{Src: 2, Dst: 5, SizeGbits: 1e6}, 4, ""},
		{WireRequest{Src: 3, Dst: 6, SizeGbits: 1e6}, 5, "c5-1"},
	} {
		if _, err := ctrl.submit(sub.r, sub.site, sub.token); err != nil {
			f.Fatal(err)
		}
	}
	ctrl.Tick()
	recs := ctrl.Store().SnapshotPrefix("transfer/")
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = recs[k]
	}
	return out
}

// FuzzDecodeTransferRecord feeds arbitrary bytes to the transfer-record
// decoders, the store form a successor recovers from (recover) and the one
// audit tools read (DecodeTransferRecord). No input may panic, the two must
// accept the same inputs, and decoding is a fixed point: a record decoded,
// marshalled again and decoded again is the record decoded the first time,
// LastServed included. The committed corpus
// (testdata/fuzz/FuzzDecodeTransferRecord) holds the seeds' records.
func FuzzDecodeTransferRecord(f *testing.F) {
	for _, b := range transferRecords(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeTransferRecord(b)
		var p persistedTransfer
		if perr := json.Unmarshal(b, &p); (perr == nil) != (err == nil) {
			t.Fatalf("%q: DecodeTransferRecord says %v, the store decoder %v", b, err, perr)
		}
		if err != nil {
			return
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("decoded record %+v does not marshal: %v", p, err)
		}
		var q persistedTransfer
		if err := json.Unmarshal(again, &q); err != nil {
			t.Fatalf("re-marshalled %q does not decode: %v", again, err)
		}
		if q != p {
			t.Fatalf("decoding is not a fixed point:\n first  %+v\n second %+v", p, q)
		}
		if rec2, err := DecodeTransferRecord(again); err != nil || rec2 != rec {
			t.Fatalf("re-marshalled %q decodes to %+v (%v), the original to %+v", again, rec2, err, rec)
		}
	})
}
