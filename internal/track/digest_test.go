package track

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestSessionGoldenDigestsPinned pins the golden sessions' fix tables
// across versions, not just across two runs of one build: the sha256 of
// fixTable for the seed-11 warm (translated) and cold sessions must
// match constants recorded before the fused FISTA tick landed. A solver
// or kernel change that moves a single bit of any fix — range, latency,
// band count, acceptance — fails here on every kernel tier, since the
// tiers are bit-identical by contract. Update the constants only for a
// change that is meant to alter the numerics, and say so.
func TestSessionGoldenDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline session")
	}
	warm := goldenSessionConfig()
	cold := warm
	cold.WarmStart, cold.VelocityTranslate = false, false
	for _, c := range []struct {
		name string
		cfg  SessionConfig
		want string
	}{
		{"warm", warm, "f1428f659922760717d8685813ad4a6a9a095212040bcd50be06f7caa2b99044"},
		{"cold", cold, "7f1cec8b7457e81ec116fe9c8130999f85adf6cbf2639a34b1e96136e023d4f1"},
	} {
		sum := sha256.Sum256([]byte(fixTable(runGolden(t, 11, c.cfg))))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s session fix-table digest %s, pinned %s", c.name, got, c.want)
		}
	}
}
