package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSubmitBodyCap: a POST /jobs body one byte over maxSubmitBody is
// refused with 413, even though it would decode to a valid job, and an
// ordinary submission is still admitted.
func TestSubmitBodyCap(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	job, err := json.Marshal(zdtJob("nsga2", 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Leading whitespace is valid JSON, so only the size can reject it.
	big := strings.Repeat(" ", maxSubmitBody+1-len(job)) + string(job)
	if got := post(big); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of %d bytes: status %d, want 413", len(big), got)
	}
	if got := post(string(job)); got != http.StatusCreated {
		t.Fatalf("normal submission: status %d, want 201", got)
	}
}
