package expt

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sacga/internal/search"
)

// goldenCases pins every engine-running experiment at a small scale to a
// fingerprint of its headline values and front CSV bytes. The engines'
// determinism contract makes these constants independent of worker count
// and kernel path (AVX2 or purego), so a refactor that moves any front —
// or any reported number — fails here.
var goldenCases = []struct {
	id    string
	scale float64
	want  string
}{
	{"fig2", 0.06, "69c53e272fccb030ff92ea55"},
	{"fig5", 0.06, "506cfbd5039d7e4cb2b78b03"},
	{"fig6", 0.02, "fdee56a6466058a7cb23d658"},
	{"fig8", 0.06, "fb702af4b1750da5bbc0f112"},
	{"fig9", 0.05, "ea6e4118eca63052b9fbb03d"},
	{"fig10", 0.08, "1198e4b2ccfb731626908c6e"},
	{"fig11", 0.04, "a228099386bf73b8f41edfbc"},
	{"ablation", 0.04, "87db35c240af95b9ff47eea5"},
	{"hybrid", 0.04, "c534043de183eab91d3e75b6"},
}

// goldenFingerprint digests a report's Values (bit patterns, sorted by key,
// so NaN and ±Inf fingerprint too) and the bytes of its CSV outputs.
func goldenFingerprint(t *testing.T, rep *Report) string {
	t.Helper()
	keys := make([]string, 0, len(rep.Values))
	for k := range rep.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	values := make([]string, len(keys))
	for i, k := range keys {
		values[i] = fmt.Sprintf("%s=%016x", k, math.Float64bits(rep.Values[k]))
	}
	var csvs []string
	for _, f := range rep.Files {
		if !strings.HasSuffix(f, ".csv") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, filepath.Base(f), string(b))
	}
	return search.Fingerprint(values, csvs)
}

func TestGoldenFingerprints(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.id, func(t *testing.T) {
			cfg := smallCfg(t)
			cfg.Scale = gc.scale
			cfg.Seeds = 2
			rep, err := Run(gc.id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenFingerprint(t, rep); got != gc.want {
				t.Errorf("%s fingerprint = %s, want %s", gc.id, got, gc.want)
			}
		})
	}
}
