package faultnet

import (
	"context"
	"net"
)

// Dialer returns a dial function (compatible with the control-plane
// client's WithDialer option) whose connections carry the fault schedule.
// Dials fail while partitioned.
func (i *Injector) Dialer() func(ctx context.Context, addr string) (net.Conn, error) {
	return i.DialerFrom(func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
}
