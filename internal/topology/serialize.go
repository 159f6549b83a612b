package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// wireNetwork is the JSON representation of a Network.
type wireNetwork struct {
	Name      string      `json:"name"`
	ThetaGbps float64     `json:"theta_gbps"`
	ReachKm   float64     `json:"reach_km"`
	Sites     []wireSite  `json:"sites"`
	Fibers    []wireFiber `json:"fibers"`
}

type wireSite struct {
	Name         string `json:"name"`
	RouterPorts  int    `json:"router_ports"`
	Regenerators int    `json:"regenerators,omitempty"`
	NoRouter     bool   `json:"no_router,omitempty"`
}

type wireFiber struct {
	A           int     `json:"a"`
	B           int     `json:"b"`
	LengthKm    float64 `json:"length_km"`
	Wavelengths int     `json:"wavelengths"`
}

// MarshalJSON implements json.Marshaler for Network, producing a stable,
// human-editable format (site and fiber ids are positional).
func (n *Network) MarshalJSON() ([]byte, error) {
	w := wireNetwork{Name: n.Name, ThetaGbps: n.ThetaGbps, ReachKm: n.ReachKm}
	for _, s := range n.Sites {
		w.Sites = append(w.Sites, wireSite{
			Name: s.Name, RouterPorts: s.RouterPorts,
			Regenerators: s.Regenerators, NoRouter: !s.HasRouter,
		})
	}
	for _, f := range n.Fibers {
		w.Fibers = append(w.Fibers, wireFiber{
			A: f.A, B: f.B, LengthKm: f.LengthKm, Wavelengths: f.Wavelengths,
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler for Network.
func (n *Network) UnmarshalJSON(b []byte) error {
	var w wireNetwork
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	n.Name = w.Name
	n.ThetaGbps = w.ThetaGbps
	n.ReachKm = w.ReachKm
	n.Sites = nil
	n.Fibers = nil
	for i, s := range w.Sites {
		n.Sites = append(n.Sites, Site{
			ID: i, Name: s.Name, RouterPorts: s.RouterPorts,
			Regenerators: s.Regenerators, HasRouter: !s.NoRouter,
		})
	}
	for i, f := range w.Fibers {
		n.Fibers = append(n.Fibers, Fiber{
			ID: i, A: f.A, B: f.B, LengthKm: f.LengthKm, Wavelengths: f.Wavelengths,
		})
	}
	return nil
}

// WriteTo serializes the network as indented JSON.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	m, err := w.Write(b)
	return int64(m), err
}

// ReadNetwork parses and validates a JSON network description.
func ReadNetwork(r io.Reader) (*Network, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	n := new(Network)
	if err := json.Unmarshal(b, n); err != nil {
		return nil, fmt.Errorf("topology: parse network: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
