package gameauthority_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ga "gameauthority"
)

// TestMetricNames enforces the metric naming conventions on a live
// server — durable, group-committed and sharded, so every package-level
// registration and every Authority/store/hub gauge is present in the
// scrape. For every family GET /metrics declares:
//
//   - the name starts with the gameauthority_ prefix;
//   - counters end in _total;
//   - histograms' base names end in _seconds (latencies are seconds);
//   - gauges do not end in _total (that suffix is reserved for
//     monotonic counters).
//
// A new metric with a nonconforming name fails here rather than shipping.
func TestMetricNames(t *testing.T) {
	st, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := ga.NewAuthority(
		ga.WithStore(st),
		ga.WithGroupCommit(time.Millisecond, 64),
		ga.WithShards(2),
	)
	t.Cleanup(func() { a.Close() })
	srv := httptest.NewServer(ga.NewServer(a))
	t.Cleanup(srv.Close)

	problems, families := lintMetricNames(string(durGet(t, srv.URL+"/metrics", http.StatusOK)))
	for _, p := range problems {
		t.Error(p)
	}
	if families == 0 {
		t.Error("the scrape declared no metric family")
	}
}

// lintMetricNames applies the naming rules to every `# TYPE name type`
// declaration and checks each sample line belongs to a declared family.
func lintMetricNames(body string) (problems []string, families int) {
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				problems = append(problems, fmt.Sprintf("malformed TYPE line %q", line))
				continue
			}
			name, typ := fields[2], fields[3]
			if prev, ok := types[name]; ok && prev != typ {
				problems = append(problems, fmt.Sprintf("%s declared as both %s and %s", name, prev, typ))
			}
			types[name] = typ
		case strings.HasPrefix(line, "#"):
			problems = append(problems, fmt.Sprintf("unrecognized comment line %q", line))
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if t, ok := strings.CutSuffix(name, suffix); ok && types[t] == "histogram" {
					base = t
					break
				}
			}
			if _, ok := types[base]; !ok {
				problems = append(problems, fmt.Sprintf("series %s has no TYPE declaration", name))
			}
		}
	}
	for name, typ := range types {
		if !strings.HasPrefix(name, "gameauthority_") {
			problems = append(problems, fmt.Sprintf("%s lacks the gameauthority_ prefix", name))
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("counter %s must end in _total", name))
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") {
				problems = append(problems, fmt.Sprintf("histogram %s must end in _seconds", name))
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("gauge %s must not end in _total (reserved for counters)", name))
			}
		default:
			problems = append(problems, fmt.Sprintf("%s has unsupported type %s", name, typ))
		}
	}
	return problems, len(types)
}
