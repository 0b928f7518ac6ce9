#pragma once
// The paper's content-free similarity measurement (Section III).
//
// Any rigid camera motion decomposes into a rotation and a translation
// (Newtonian-mechanics argument of Section III-A); the similarity between
// two FoVs is the product of the two components (Eq. 10):
//
//   Sim(f1, f2) = Sim_R(δθ) × Sim_T(δp, θ_p)
//
// * Sim_R — Eq. 4: fractional overlap of the two angular ranges,
//   (2α − δθ)/(2α), zero once δθ ≥ 2α.
// * Sim_∥ — Eq. 5: translating along the optical axis by d shrinks the
//   shared view to half-angle φ_∥ = arctan(R sin α / (d + R cos α)).
//   NOTE on normalization: the paper's Eq. 7 divides φ by 2α, which would
//   make Sim(f, f) = 1/2 and contradict both Eq. 3 (Sim = 1 iff identical)
//   and the text "narrowed from 2α to 2φ". We normalize the full shared
//   angle 2φ by the full viewing angle 2α, i.e. Sim = φ/α, so identity
//   yields exactly 1.
// * Sim_⊥ — Eq. 6 as printed is dimensionally garbled (see DESIGN.md §5).
//   We derive it from first principles: a perpendicular translation of d
//   keeps the axial foreshortening of Sim_∥ AND slides the viewable sector
//   sideways, losing shared lateral extent linearly until the sectors are
//   disjoint at d = 2R sin α (the sector's lateral width). Hence
//     Sim_⊥(d) = Sim_∥(d) · max(0, 1 − d / (2R sin α)).
//   This satisfies, by construction, every property the paper states:
//   Sim_⊥(0) = 1, strictly decreasing, Sim_⊥ ≤ Sim_∥ with equality iff
//   d = 0, and Sim_⊥ hits exactly 0 at d = 2R sin α while Sim_∥ stays
//   positive for all d.
// * Sim_T — Eq. 9: linear interpolation between the two extremes by the
//   translation direction θ_p (angle between the displacement vector and
//   the viewing axis, folded into [0°, 90°]).
//
// The segmenter evaluates Eq. 10 once per frame against its anchor, so
// similarity() also takes each FoV's unit heading, which the caller
// computes once per frame. It does each step once: δθ and Sim_R (0 past
// 2α), the displacement and its bearing, the mean axis from the sum of the
// two headings, θ_p folded once, and one φ_∥ shared by Sim_∥ and Sim_⊥.
// Every expression runs in the order the per-equation functions below use,
// so it returns the same double as Sim_R(δθ) · Sim_T(d, θ_p) composed from
// them with θ_p measured against circular_mean_deg({θ1, θ2}).
//
// An exact grid-sampled sector-overlap similarity is provided as a
// reference oracle; tests validate that the closed-form model tracks it.

#include "core/fov.hpp"
#include "geo/vec2.hpp"

namespace svg::core {

/// Closed-form FoV similarity per Section III, parameterized by the camera
/// intrinsics (α, R). Stateless apart from the intrinsics; all methods are
/// pure and thread-safe.
class SimilarityModel {
 public:
  explicit SimilarityModel(CameraIntrinsics cam) noexcept;

  [[nodiscard]] const CameraIntrinsics& camera() const noexcept {
    return cam_;
  }

  /// Eq. 4 — rotation component for an orientation difference δθ (degrees,
  /// any sign/wrap; uses the circular difference of Eq. 2).
  [[nodiscard]] double sim_rotation(double delta_theta_deg) const noexcept;

  /// Eq. 5 — the shared half-angle φ_∥ (degrees) after translating
  /// distance d (metres) along the optical axis.
  [[nodiscard]] double phi_parallel_deg(double d) const noexcept;

  /// Parallel-translation similarity: φ_∥/α. Positive for every finite d.
  [[nodiscard]] double sim_parallel(double d) const noexcept;

  /// Perpendicular-translation similarity (first-principles Eq. 6
  /// replacement). Exactly 0 for d ≥ 2R sin α.
  [[nodiscard]] double sim_perpendicular(double d) const noexcept;

  /// Eq. 9 — translation similarity for displacement `d` metres in a
  /// direction making angle `rel_dir_deg` with the optical axis. The
  /// direction is folded into [0°, 90°] (forward/backward symmetric).
  [[nodiscard]] double sim_translation(double d,
                                       double rel_dir_deg) const noexcept;

  /// Eq. 10 — full similarity between two FoVs. δp and θ_p come from the
  /// spherical-to-planar transform (Eq. 12); θ_p is measured against the
  /// circular mean of the two headings so rotation and translation
  /// decompose symmetrically.
  [[nodiscard]] double similarity(const FoV& f1, const FoV& f2) const noexcept;

  /// The same, given each FoV's unit heading (east, north) =
  /// geo::direction_of_azimuth(θ), so a caller comparing many frames to
  /// one anchor computes each heading once. The form above computes both
  /// headings and calls this one.
  [[nodiscard]] double similarity(const FoV& f1, const geo::Vec2& heading1,
                                  const FoV& f2,
                                  const geo::Vec2& heading2) const noexcept;

  /// Ground-truth oracle: |scene(f1) ∩ scene(f2)| / |scene|, sampled on a
  /// grid in a local frame anchored at f1 (resolution = cells across the
  /// larger bounding-box side). Slow; for validation and figures only.
  [[nodiscard]] double exact_overlap_similarity(const FoV& f1, const FoV& f2,
                                                int resolution = 256) const;

 private:
  /// Sim_R for δθ already folded into [0°, 180°].
  [[nodiscard]] double rotation_folded(double delta_deg) const noexcept;
  /// Sim_T for d > 0 and a direction already folded into [0°, 180°]; one
  /// φ_∥ serves both Sim_∥ and Sim_⊥.
  [[nodiscard]] double translation_folded(double d,
                                          double rel_dir_deg) const noexcept;

  CameraIntrinsics cam_;
  double alpha_rad_;      ///< α in radians
  double sin_alpha_;      ///< sin α
  double cos_alpha_;      ///< cos α
  double lateral_m_;      ///< 2R sin α
};

}  // namespace svg::core
