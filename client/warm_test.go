package client

// Remote cache warming: the client's side of POST /v1/warm.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func newMuxClient(t *testing.T, mux *http.ServeMux, cfg Config) *Client {
	t.Helper()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	cfg.BaseURL = srv.URL
	c := New(cfg)
	fc := &fakeClock{t: time.Unix(1000, 0)}
	c.now = fc.now
	c.sleep = fc.sleep
	c.rng = rand.New(rand.NewSource(1))
	return c
}

func TestWarm(t *testing.T) {
	var gotBody warmRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/warm", func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&gotBody); err != nil {
			t.Errorf("bad warm body: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"warmed":2,"resident":1,"failed":1,"errors":["shape 3: bad shape"]}`)
	})
	c := newMuxClient(t, mux, Config{})

	shapes := []Shape{
		{Kind: "reduce1d", Alg: "chain", P: 8, B: 4},
		{Kind: "allreduce2d", Alg2D: "xy-tree", Width: 4, Height: 2, B: 8, Op: "max"},
	}
	res, err := c.Warm(context.Background(), shapes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmed != 2 || res.Resident != 1 || res.Failed != 1 || len(res.Errors) != 1 {
		t.Fatalf("WarmResult = %+v", res)
	}
	if len(gotBody.Shapes) != 2 || gotBody.Shapes[0].Kind != "reduce1d" || gotBody.Shapes[1].Op != "max" {
		t.Fatalf("server saw shapes %+v", gotBody.Shapes)
	}
}
