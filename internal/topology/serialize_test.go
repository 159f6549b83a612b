package topology

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetworkJSONRoundTrip(t *testing.T) {
	for _, n := range []*Network{Internet2(15), ISP(25, 8, 3), InterDC(20, 5, 6, 4), Square()} {
		var buf bytes.Buffer
		if _, err := n.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadNetwork(&buf)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if back.Name != n.Name || back.ThetaGbps != n.ThetaGbps || back.ReachKm != n.ReachKm {
			t.Errorf("%s: header mismatch", n.Name)
		}
		if len(back.Sites) != len(n.Sites) || len(back.Fibers) != len(n.Fibers) {
			t.Fatalf("%s: size mismatch", n.Name)
		}
		for i := range n.Sites {
			if back.Sites[i] != n.Sites[i] {
				t.Errorf("%s: site %d: %+v != %+v", n.Name, i, back.Sites[i], n.Sites[i])
			}
		}
		for i := range n.Fibers {
			if back.Fibers[i] != n.Fibers[i] {
				t.Errorf("%s: fiber %d differs", n.Name, i)
			}
		}
	}
}

func TestReadNetworkValidates(t *testing.T) {
	// Disconnected network must be rejected on read.
	bad := `{"name":"x","theta_gbps":10,"reach_km":2000,
	  "sites":[{"name":"a","router_ports":2},{"name":"b","router_ports":2},{"name":"c","router_ports":2}],
	  "fibers":[{"a":0,"b":1,"length_km":100,"wavelengths":8}]}`
	if _, err := ReadNetwork(strings.NewReader(bad)); err == nil {
		t.Error("disconnected network accepted")
	}
	if _, err := ReadNetwork(strings.NewReader("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
}
