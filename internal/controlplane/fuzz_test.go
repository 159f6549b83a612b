package controlplane

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

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

// frameBody frames body as WriteMsg would, with a valid length and checksum.
func frameBody(body []byte) []byte {
	frame := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// exchange sends body to the controller as one well-framed message, then a
// ping whose Seq follows the message's, and reads until that ping's pong
// arrives or the controller closes the connection; it reports the close.
// The message may draw at most one reply echoing its Seq. After the
// handshake a submit is acked by an admission worker, so after the pong
// rather than before it.
func exchange(t *testing.T, conn net.Conn, body []byte, handshaken bool) (closed bool) {
	t.Helper()
	frame := frameBody(body)
	m, _ := ReadMsg(bytes.NewReader(frame)) // what the controller decodes; nil if it cannot
	async := handshaken && m != nil && m.Type == MsgSubmit && m.Request != nil
	var seq uint64
	if m != nil {
		seq = m.Seq
	}
	sentinel := seq + 1
	// net.Pipe is unbuffered: write from a second goroutine so a reply the
	// controller sends before reading the ping cannot deadlock the two.
	go func() {
		if _, err := conn.Write(frame); err == nil {
			WriteMsg(conn, &Message{Type: MsgPing, Seq: sentinel})
		}
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	replies, pong := 0, false
	for !pong || (async && replies == 0) {
		r, err := ReadMsg(conn)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("frame %q: neither a reply nor a close (pong %v, replies %d)", frame[8:], pong, replies)
		}
		if err != nil {
			return true
		}
		switch {
		case r.Type == MsgPong && r.Seq == sentinel && !pong:
			pong = true
		case m != nil && r.Seq == seq && r.Type != MsgRates:
			if replies++; replies > 1 {
				t.Fatalf("frame %q: second reply %+v for seq %d", frame[8:], r, seq)
			}
		case r.Type != MsgRates:
			t.Fatalf("frame %q: reply %+v echoes no request", frame[8:], r)
		}
	}
	return false
}

// FuzzDispatch sends well-framed messages — valid length and checksum,
// arbitrary JSON body — through the controller's handshake and dispatch
// loop over an in-memory pipe: hello is the connection's first frame and
// body, if the handshake admits it, the second. No input may panic the
// controller; each frame draws at most one reply for its Seq, or the
// connection closes; and afterwards a fresh connection still gets a status
// reply. The committed corpus (testdata/fuzz/FuzzDispatch) pairs a valid
// hello with the payload of each frame in FuzzReadMsg's corpus, corrupted
// ones included.
func FuzzDispatch(f *testing.F) {
	hello, err := json.Marshal(&Message{Type: MsgHello, Seq: 1, Version: ProtoVersion, Site: 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range wireSamples() {
		body, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(hello, body)
		f.Add(body, hello)
	}
	f.Fuzz(func(t *testing.T, hello, body []byte) {
		if len(hello) > maxFrame || len(body) > maxFrame {
			return
		}
		ctrl, err := NewServer(context.Background(), nil,
			WithCoreConfig(core.Config{Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 20}),
			WithSlotSeconds(10),
			WithShards(3)) // not a power of two, so every site's shard index is computed
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Close()
		lis := newPipeListener()
		go ctrl.Serve(lis)

		conn := lis.dial(t)
		if !exchange(t, conn, hello, false) {
			exchange(t, conn, body, true)
		}
		conn.Close()

		fresh := lis.dial(t)
		fresh.SetDeadline(time.Now().Add(10 * time.Second))
		for _, step := range []struct {
			req  Message
			want MsgType
		}{
			{Message{Type: MsgHello, Seq: 1, Version: ProtoVersion}, MsgWelcome},
			{Message{Type: MsgStatus, Seq: 2}, MsgStatusReply},
		} {
			if err := WriteMsg(fresh, &step.req); err != nil {
				t.Fatalf("fresh connection: %v", err)
			}
			if r, err := ReadMsg(fresh); err != nil || r.Type != step.want || r.Seq != step.req.Seq {
				t.Fatalf("fresh connection: %s drew %+v (%v), want %s", step.req.Type, r, err, step.want)
			}
		}
	})
}
