// Package controlplane implements Owan's controller/client protocol
// (Figure 4): clients submit bulk-transfer requests to the centralized
// controller and receive rate allocations for each time slot; the
// controller programs topology changes internally (via internal/core) and
// handles failure notifications and controller failover (§3.4).
//
// The wire protocol is length-prefixed JSON over TCP: each frame is a
// 4-byte big-endian length, a 4-byte CRC32 (IEEE) of the payload, and a
// JSON-encoded Message. JSON keeps the protocol debuggable with standard
// tools; the framing makes message boundaries explicit; the checksum makes
// in-flight corruption fail loudly as a frame error (forcing a reconnect
// and idempotent retry) instead of occasionally decoding as a different
// valid message. See PROTOCOL.md in this directory for the full frame
// format, handshake, and message reference.
package controlplane

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// ProtoVersion is the wire-protocol version this build speaks. The client
// advertises it in MsgHello; the controller negotiates down to
// min(client, controller) as long as the client speaks at least
// MinProtoVersion, and rejects anything older with a typed
// ErrCodeVersionMismatch error instead of silently misbehaving.
//
// Version 2 is the hello/welcome handshake, heartbeats, request sequence
// numbers, idempotent submit tokens, snapshot resync (MsgResync/
// MsgSnapshot) and admission backpressure (ErrCodeOverloaded with a
// retry-after hint). Versions 0 (no version field) and 1 (no resync) are
// retired.
const ProtoVersion = 2

// MinProtoVersion is the oldest client version the controller still
// serves. Every client this module builds speaks ProtoVersion, so older
// hellos are rejected.
const MinProtoVersion = 2

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types.
const (
	// MsgHello registers a client, the site it fronts, and its protocol
	// version. It must be the first message on a connection.
	MsgHello MsgType = "hello"
	// MsgWelcome is the controller's handshake reply: it confirms the
	// registration and carries the controller's protocol version.
	MsgWelcome MsgType = "welcome"
	// MsgSubmit carries a transfer request (src, dst, size, deadline).
	// Token, when set, makes the submission idempotent: resubmitting the
	// same token returns the originally assigned id.
	MsgSubmit MsgType = "submit"
	// MsgSubmitAck acknowledges a submission with its assigned id.
	MsgSubmitAck MsgType = "submit-ack"
	// MsgRates pushes the per-path rate allocation for the current slot to
	// a client.
	MsgRates MsgType = "rates"
	// MsgLinkFailure reports a failed fiber; the controller answers with
	// MsgAck (or a typed MsgError).
	MsgLinkFailure MsgType = "link-failure"
	// MsgStatus requests controller status; MsgStatusReply answers.
	MsgStatus      MsgType = "status"
	MsgStatusReply MsgType = "status-reply"
	// MsgPing/MsgPong are liveness heartbeats. Either side may ping; the
	// peer echoes the Seq back in a pong. Any inbound frame counts as
	// liveness, so pongs double as keepalives for the controller's read
	// deadline.
	MsgPing MsgType = "ping"
	MsgPong MsgType = "pong"
	// MsgAck is the generic success reply for requests that return no
	// payload (currently MsgLinkFailure).
	MsgAck MsgType = "ack"
	// MsgError reports a request-level failure with a typed Code.
	MsgError MsgType = "error"
	// MsgResync (v2) asks the controller to replay the client's
	// pending-transfer state; the reply is one MsgSnapshot. A reconnecting
	// or failed-over client converges in a single round trip instead of
	// resubmitting everything it remembers.
	MsgResync MsgType = "resync"
	// MsgSnapshot (v2) carries the durable pending-transfer state for the
	// requesting site, read from the controller's replicated store.
	MsgSnapshot MsgType = "snapshot"
)

// ErrCode classifies request-level failures so clients can distinguish
// terminal errors (don't retry) from transient ones.
type ErrCode string

const (
	// ErrCodeVersionMismatch: the client's ProtoVersion differs from the
	// controller's. Terminal — reconnecting will not help.
	ErrCodeVersionMismatch ErrCode = "version-mismatch"
	// ErrCodeProtocol: the peer violated message ordering (e.g. a request
	// before MsgHello).
	ErrCodeProtocol ErrCode = "protocol"
	// ErrCodeBadRequest: the request failed validation (unknown site,
	// negative size, ...). Terminal for that request.
	ErrCodeBadRequest ErrCode = "bad-request"
	// ErrCodeUnknownFiber: a link-failure report named a fiber the
	// controller has never seen.
	ErrCodeUnknownFiber ErrCode = "unknown-fiber"
	// ErrCodeInternal: the controller failed to process a valid request.
	ErrCodeInternal ErrCode = "internal"
	// ErrCodeOverloaded (v2): the controller's admission queue for this
	// client's shard is full (or the client cap is reached). Transient —
	// the error carries a retry-after hint in RetryAfterMs; clients back
	// off at least that long and retry under the same idempotency token.
	ErrCodeOverloaded ErrCode = "overloaded"
)

// ServerError is a typed request-level failure returned by client RPCs.
type ServerError struct {
	Code ErrCode
	Msg  string
	// RetryAfter is the controller's backpressure hint (overloaded only):
	// wait at least this long before retrying.
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("controlplane: server error (%s): %s", e.Code, e.Msg)
}

// Terminal reports whether retrying the request can ever succeed.
func (e *ServerError) Terminal() bool {
	return e.Code == ErrCodeVersionMismatch || e.Code == ErrCodeBadRequest || e.Code == ErrCodeProtocol
}

// WireRequest is a transfer submission.
type WireRequest struct {
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	SizeGbits float64 `json:"size_gbits"`
	// DeadlineSlots is the number of slots after submission by which the
	// transfer must finish; 0 means no deadline.
	DeadlineSlots int `json:"deadline_slots,omitempty"`
}

// WireRate is one path allocation for a transfer.
type WireRate struct {
	TransferID int     `json:"transfer_id"`
	Path       []int   `json:"path"`
	RateGbps   float64 `json:"rate_gbps"`
}

// WireStatus summarizes controller state.
type WireStatus struct {
	Slot      int `json:"slot"`
	Active    int `json:"active"`
	Completed int `json:"completed"`
	Circuits  int `json:"circuits"`
}

// SnapshotTransfer is one pending transfer in a resync snapshot: enough
// state for the owning client to rebuild its local view (which transfers
// are in flight, how much remains, and which idempotency token maps to
// which id) without resubmitting anything.
type SnapshotTransfer struct {
	ID             int     `json:"id"`
	Token          string  `json:"token,omitempty"`
	Src            int     `json:"src"`
	Dst            int     `json:"dst"`
	SizeGbits      float64 `json:"size_gbits"`
	RemainingGbits float64 `json:"remaining_gbits"`
	Done           bool    `json:"done,omitempty"`
}

// WireSnapshot is the MsgSnapshot body: the controller's durable view of
// one site's transfers, replayed from the replicated store.
type WireSnapshot struct {
	Slot int `json:"slot"`
	// Pending lists the site's not-yet-finished transfers in id order.
	Pending []SnapshotTransfer `json:"pending,omitempty"`
	// Truncated is set when the pending set was cut to fit the frame
	// limit; the client may resync again for the remainder once the
	// earlier entries finish.
	Truncated bool `json:"truncated,omitempty"`
}

// Message is the protocol envelope. Exactly the fields relevant to Type
// are populated.
type Message struct {
	Type MsgType `json:"type"`
	// Seq is a client-chosen request sequence number; the controller
	// echoes it on the direct reply so a client can match responses after
	// a reconnect, and on pongs so pings are correlated.
	Seq     uint64       `json:"seq,omitempty"`
	Version int          `json:"version,omitempty"`
	Site    int          `json:"site,omitempty"`
	Token   string       `json:"token,omitempty"`
	Request *WireRequest `json:"request,omitempty"`
	ID      int          `json:"id,omitempty"`
	Rates   []WireRate   `json:"rates,omitempty"`
	FiberID int          `json:"fiber_id,omitempty"`
	Status  *WireStatus  `json:"status,omitempty"`
	Code    ErrCode      `json:"code,omitempty"`
	Err     string       `json:"err,omitempty"`
	// RetryAfterMs is the backpressure hint accompanying an overloaded
	// error: the client should wait at least this many milliseconds
	// before retrying.
	RetryAfterMs int `json:"retry_after_ms,omitempty"`
	// Snapshot is the MsgSnapshot body (v2 resync).
	Snapshot *WireSnapshot `json:"snapshot,omitempty"`
}

// maxFrame bounds a frame to keep a malformed or malicious peer from
// forcing a huge allocation.
const maxFrame = 1 << 20

// WriteMsg writes one framed message.
func WriteMsg(w io.Writer, m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("controlplane: marshal: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("controlplane: frame too large (%d bytes)", len(body))
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadMsg reads one framed message, verifying the payload checksum. Any
// single-byte corruption of header or payload is guaranteed to fail here
// rather than decode as a plausible message.
func ReadMsg(r io.Reader) (*Message, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return nil, fmt.Errorf("controlplane: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("controlplane: frame checksum mismatch (corrupt frame)")
	}
	m := new(Message)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("controlplane: unmarshal: %w", err)
	}
	return m, nil
}
