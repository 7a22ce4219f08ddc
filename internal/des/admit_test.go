package des

// Admission phase checks: continuous and prefill-pool stations admit
// through one FIFO loop, and a request of the wrong phase at the
// queue head — a router bug — fails the event with the station, its
// role, the phase and the request named.

import (
	"testing"

	"llmbench/internal/workload"
)

func TestAdmitRejectsWrongPhase(t *testing.T) {
	for _, c := range []struct {
		role   Role
		decode bool
		want   string
	}{
		{RolePrefill, true, "des: station 0 (prefill) received a decode-phase request 3"},
		{RoleDecode, false, "des: station 0 (decode) received a prefill-phase request 3"},
	} {
		s := allocTestStation(t, Config{MaxBatch: 8, Transfer: disaggTestTransfer}, 16)
		s.role = c.role
		var carry *RequestStats
		if c.decode {
			carry = &RequestStats{}
		}
		s.enqueue(&workload.Request{ID: 3, Input: 64, Output: 8}, carry)
		s.nextAt = 0
		if err := s.event(); err == nil || err.Error() != c.want {
			t.Errorf("%s station: error %v, want %q", c.role, err, c.want)
		}
	}
}
