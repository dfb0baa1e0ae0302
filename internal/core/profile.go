package core

import (
	"fmt"
	"math"
	"time"
)

// Profile is one user's personalized privacy profile (MeshCloak-style
// personalized location privacy): the anonymity level the user demands,
// the largest cloak area they consider useful, and the longest they
// tolerate being served from a stale generation. The zero Profile means
// "service defaults" everywhere — a field left at zero defers to the
// service-wide policy for that dimension.
//
// Profiles only ever strengthen protection: a user's effective
// anonymity level is max(service k, Profile.K), so no profile can pull
// a cluster below the service floor. Clusters must satisfy the maximum
// effective k over their members (see CentralizedTConnProfiled).
type Profile struct {
	// K is the user's personal anonymity floor (0 = the service-wide k).
	// Values below the service k are absorbed by it.
	K int32 `json:"k,omitempty"`
	// MaxArea is the largest cloak area the user finds useful (0 =
	// unbounded). Exceeding it does not unserve the user — the cluster
	// is still a valid k-anonymity set — but the user is reported as
	// degraded in cloak responses and the epoch accounting.
	MaxArea float64 `json:"max_area,omitempty"`
	// MaxStaleness bounds how long this user's uploads may wait without
	// a rebuild (0 = the service-wide policy). The pipeline's effective
	// staleness bound is the minimum over the policy and all stored
	// profiles.
	MaxStaleness time.Duration `json:"max_staleness,omitempty"`
}

// IsDefault reports whether every field defers to the service policy.
func (p Profile) IsDefault() bool { return p == Profile{} }

// Validate rejects profiles no policy could honor. maxK bounds K (pass
// the population size; a demand above it could never be satisfied).
func (p Profile) Validate(maxK int) error {
	if p.K < 0 {
		return fmt.Errorf("core: profile k %d < 0", p.K)
	}
	if maxK > 0 && int(p.K) > maxK {
		return fmt.Errorf("core: profile k %d exceeds population %d", p.K, maxK)
	}
	if p.MaxArea < 0 || math.IsNaN(p.MaxArea) || math.IsInf(p.MaxArea, 0) {
		return fmt.Errorf("core: profile max area %v must be finite and >= 0", p.MaxArea)
	}
	if p.MaxStaleness < 0 {
		return fmt.Errorf("core: profile max staleness %v < 0", p.MaxStaleness)
	}
	return nil
}

// EffectiveK resolves the user's anonymity floor against the
// service-wide k: profiles strengthen, never weaken.
func (p Profile) EffectiveK(serviceK int) int {
	if int(p.K) > serviceK {
		return int(p.K)
	}
	return serviceK
}

// String renders the non-default fields for logs.
func (p Profile) String() string {
	if p.IsDefault() {
		return "default"
	}
	s := ""
	if p.K > 0 {
		s += fmt.Sprintf("k=%d", p.K)
	}
	if p.MaxArea > 0 {
		if s != "" {
			s += "|"
		}
		s += fmt.Sprintf("area<=%g", p.MaxArea)
	}
	if p.MaxStaleness > 0 {
		if s != "" {
			s += "|"
		}
		s += fmt.Sprintf("stale<=%v", p.MaxStaleness)
	}
	return s
}
