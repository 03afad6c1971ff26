package server

import (
	"strings"
	"testing"
)

// TestRequestLimitEdges pins both edges of each request-size limit: the
// largest legal value passes validation and the next legal step past it
// is rejected with a message naming the field.
func TestRequestLimitEdges(t *testing.T) {
	hier := func(cacheBytes, spmBytes int) Hierarchy {
		return Hierarchy{CacheBytes: cacheBytes, SPMBytes: spmBytes}
	}
	cases := []struct {
		name    string
		req     Request
		wantErr string // "" = must pass
	}{
		{"program at 256 KiB", Request{Program: strings.Repeat("x", 256<<10), Hierarchy: hier(1024, 128)}, ""},
		{"program one byte over", Request{Program: strings.Repeat("x", 256<<10+1), Hierarchy: hier(1024, 128)}, "program source"},
		{"cache at 4 MiB", Request{Workload: "adpcm", Hierarchy: hier(4<<20, 128)}, ""},
		{"cache at 8 MiB", Request{Workload: "adpcm", Hierarchy: hier(8<<20, 128)}, "cache_bytes"},
		{"spm at 1 MiB", Request{Workload: "adpcm", Hierarchy: hier(1024, 1<<20)}, ""},
		{"spm one line over", Request{Workload: "adpcm", Hierarchy: hier(1024, 1<<20+16)}, "spm_bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.normalize()
			err := req.validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected a request at the limit: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("accepted a request past the limit")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}
