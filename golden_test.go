package ftbfs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ftbfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// goldenSave pins the SHA-256 of Save output for structures built on two
// fixed graphs: the 45×45 grid with the four quadrant sources of the batch
// benchmark, and a random connected graph on 400 vertices. The digests were
// recorded with the binary-search Pcons and full-BFS failure sweep, so any
// change to Phase S0 that alters a single byte of a structure fails here.
// Keys are "graph/source/ε".
var goldenSave = map[string]string{
	"grid45/506/0.1":    "32216042a6942587554737ca0d6cfca3933c9a890b4115c1f09a14fca7c38956",
	"grid45/506/0.3":    "a705a21e9d8fcb971c743fbed0aa58d821b3bfc801dc492e97c6727483a8de0b",
	"grid45/506/0.5":    "229ec728a12fb9167ddc1a167552e98803785a7f92d7a85b9f1ed5b0ed6dadf2",
	"grid45/506/1":      "d6bfaeadf325aa58faa608f0a6acac2d7b893d600f6b49dc0f3dbeef356a20f2",
	"grid45/528/0.1":    "46555d01fabcd766c63c8dde7c4110fba663e7e405c282d56d6de53eee845beb",
	"grid45/528/0.3":    "cf8b2bc80f8e27ebbc70f9ff8de37f512421a66bf1e4c486b86bbed8705d9150",
	"grid45/528/0.5":    "b678f9a87e32ede8faef85d33778f7f14883370499538bce4f009e28adc00aaf",
	"grid45/528/1":      "dff52898e1449bc9c39abab86da6baaa5cf46e6689f6298a0ca257faf0ef8860",
	"grid45/1496/0.1":   "f42259aba898ee8dfa6918227315c3c9721c8eee3f31b343d41f776fd20a72f8",
	"grid45/1496/0.3":   "28f3985e9083d03f281c5ef70d5c12323bac41ef5923db51bddaf16364f679b4",
	"grid45/1496/0.5":   "61871755263602d62cdc5df809aa46e8295e8b4b1362f5f1e455c7e6e2613fe1",
	"grid45/1496/1":     "ca81015c04f6030e064dc8c8d0c9c67c3d5e4288e239e990aa1307317a00a5e7",
	"grid45/1518/0.1":   "55820c9ffb975f18cc7795db06b9608b89f4e232c494241f64b83629938e53fe",
	"grid45/1518/0.3":   "e23fdebf5d08f37ac1ba51113cb9602e3d752a454d2cce3c1888b4a5342db9e2",
	"grid45/1518/0.5":   "ca1cb73c0f7c94311fdb60a15a32199a7b1b7d6a0c5c9b4aa2e69c13ff1b1d2b",
	"grid45/1518/1":     "4b6c28d17a4cb159aead8110dd5c612913af8e2daa87da4fb6c2d91bfb71b32f",
	"random400/0/0.1":   "625d78d2292818e22aa2f07d1dc70185d76970bd7a4fbfc3481a3fe3b600898d",
	"random400/0/0.3":   "00f8c278c6ea52f358fed82d6fa25330777883672fc6269646a6e4e10d601b96",
	"random400/0/0.5":   "a809ef4049415ab37c03e12d2a4e69df7c74e1846b1937b7aabc436c33007bf6",
	"random400/0/1":     "a25e9cde7f63880b9373ba98a0f3162c41939ea3087e4e2e7f4ae92c89147189",
	"random400/133/0.1": "b387f28436519347f062d55354118517cf90933e8f8f1593ff2b65d79ed7b133",
	"random400/133/0.3": "0c83c9b2f6c1034ecde022596d93ead9485405ad3564d2368902a7066a6d2058",
	"random400/133/0.5": "549b0405f8a2bd957c7c717029c27b9f840163efeec58b11153d1771beefe1a6",
	"random400/133/1":   "5d7619ec036b88e7d02dd8e5c0590459b004a083829f1dff946ee243716b47d7",
	"random400/266/0.1": "701e6b833345ed7ba3b32621bf836b2d77de9744e8d6ee63e1bf7524d58302e6",
	"random400/266/0.3": "62cb21e2eb5d5a0d8c0406d823334bf272ec9b94f7f50ae3d4f453f42f078243",
	"random400/266/0.5": "3bc0657afbdd7e36fcfa580fb4b6d1b84c35c8012a104b5428ca0f14ce55a8bc",
	"random400/266/1":   "21a5bd5f07260f0956911ca6c51bcb8bdc3b6167ec488172a53b2d950264ef54",
	"random400/399/0.1": "39316c51c23501d9f913548c50767357c92d3a8a8810eccd0c381bb373b64c20",
	"random400/399/0.3": "8dbb91e689c5885f7066a2a5a9d49fd1493d147de6f079ecbadff57cce57e4dd",
	"random400/399/0.5": "bde041cabb1289e43ab678822e381673fb2c2b05471aa785e6b40aabcb01a3df",
	"random400/399/1":   "e1b282f5a3f72d8e058d730589cf1beb3c18bb92867b4aa70fbd020aab981035",
}

func publicGraph(ig *graph.Graph) *ftbfs.Graph {
	g := ftbfs.NewGraph(ig.N())
	for _, e := range ig.Edges() {
		g.MustAddEdge(int(e.U), int(e.V))
	}
	return g
}

func saveDigest(t *testing.T, st *ftbfs.Structure) string {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenSaveDigests builds every (source, ε) of the golden table both
// with Build and with one BuildBatch per graph, and checks each Save output
// against its recorded digest.
func TestGoldenSaveDigests(t *testing.T) {
	fixtures := []struct {
		name    string
		g       *ftbfs.Graph
		sources []int
	}{
		{"grid45", publicGraph(gen.Grid(45, 45)), []int{11*45 + 11, 11*45 + 33, 33*45 + 11, 33*45 + 33}},
		{"random400", publicGraph(gen.RandomConnected(400, 1200, 1)), []int{0, 133, 266, 399}},
	}
	epss := []float64{0.1, 0.3, 0.5, 1}
	for _, fx := range fixtures {
		var reqs []ftbfs.BatchRequest
		for _, s := range fx.sources {
			for _, eps := range epss {
				reqs = append(reqs, ftbfs.BatchRequest{Source: s, Eps: eps})
			}
		}
		batched, err := ftbfs.BuildBatch(fx.g, reqs)
		if err != nil {
			t.Fatalf("%s: BuildBatch: %v", fx.name, err)
		}
		for i, r := range reqs {
			key := fmt.Sprintf("%s/%d/%g", fx.name, r.Source, r.Eps)
			want, ok := goldenSave[key]
			if !ok {
				t.Errorf("%s: no golden digest", key)
				continue
			}
			st, err := ftbfs.Build(fx.g, r.Source, r.Eps)
			if err != nil {
				t.Fatalf("%s: Build: %v", key, err)
			}
			if got := saveDigest(t, st); got != want {
				t.Errorf("%s: Build digest %s, want %s", key, got, want)
			}
			if got := saveDigest(t, batched[i]); got != want {
				t.Errorf("%s: BuildBatch digest %s, want %s", key, got, want)
			}
		}
	}
}
