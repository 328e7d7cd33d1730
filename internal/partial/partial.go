// Package partial names the partial-map preset of the one map store in
// internal/sideways (Section 4 of the paper: cracker maps materialized
// lazily as chunks over areas of a chunk map H_A, under a storage budget).
// It holds no machinery of its own.
package partial

import (
	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// Store is the map store; NewStore returns it with partial maps.
type Store = sideways.Store

// NewStore wraps rel (not copied) for partial sideways cracking.
func NewStore(rel *store.Relation) *Store { return sideways.NewPartialStore(rel) }
