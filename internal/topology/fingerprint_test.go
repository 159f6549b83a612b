package topology

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// fingerprintFile holds one line per pinned builder output: the SHA-256 of
// the network's JSON form, two spaces, and its name. The digests were taken
// from the cubic builders that primTree and the bitset reach search replaced.
const fingerprintFile = "testdata/builders.sha256"

// eachFingerprinted calls f with every network the fingerprints pin, in file
// order: ISP over a size sweep that straddles the one- and multi-word mask
// widths, two port counts and twelve seeds, then Internet2, two InterDC
// shapes (the controller's, and a smaller 15-site one) and Square.
func eachFingerprinted(f func(name string, n *Network)) {
	for _, sites := range []int{5, 9, 25, 40, 64, 65, 100, 129, 150, 200, 250} {
		for _, ports := range []int{8, 10} {
			for seed := int64(0); seed < 12; seed++ {
				f(fmt.Sprintf("isp/%d/%d/%d", sites, ports, seed), ISP(sites, ports, seed))
			}
		}
	}
	f("internet2/8", Internet2(8))
	f("interdc/25/5/8/2", InterDC(25, 5, 8, 2))
	f("interdc/15/5/2/3", InterDC(15, 5, 2, 3))
	f("square", Square())
}

func fingerprint(n *Network) (string, error) {
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestBuilderFingerprints pins every builder's output byte for byte — sites,
// regenerator pools, and fibers in id order with their lengths — so a faster
// builder cannot change a network, and with it every route table, search and
// figure computed on it.
func TestBuilderFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 268 networks up to 250 sites")
	}
	fh, err := os.Open(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed line %q", sc.Text())
		}
		want[name] = sum
		order = append(order, name)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	i := 0
	eachFingerprinted(func(name string, n *Network) {
		got, err := fingerprint(n)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(order) || order[i] != name {
			t.Fatalf("network %d is %s, which the file does not pin in that place", i, name)
		}
		if got != want[name] {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want[name])
		}
		i++
	})
	if i != len(order) {
		t.Errorf("built %d networks, the file pins %d", i, len(order))
	}
}
