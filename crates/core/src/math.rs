//! The element-wise update formulas shared by every backend.
//!
//! FastPSO's central idea is that Equation (1) decomposes into independent
//! per-element updates (`v'₁₁ = ω·v₁₁ + c1·l₁₁·(a₁ − p₁₁) + c2·g₁₁·(b₁ − p₁₁)`).
//! Keeping that scalar formula in exactly one place — and evaluating it in
//! exactly one operation order — is what makes both CPU backends and the
//! GPU global-memory backend produce bit-identical f32 trajectories from
//! the same Philox draws.

/// One element of the velocity update (paper Equation 1, element form),
/// including the bound constraint (Equation 5).
///
/// * `v` — current velocity element `v_ij`;
/// * `p` — current position element `p_ij`;
/// * `l`, `g` — the random weights `l_ij`, `g_ij`;
/// * `pb_attr` — the particle attractor at this element (`pbest` position
///   element under standard semantics; the particle's scalar best error
///   under the paper's literal scalar-broadcast reading);
/// * `gb_attr` — the swarm attractor at this element.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn velocity_update_elem(
    v: f32,
    p: f32,
    l: f32,
    g: f32,
    pb_attr: f32,
    gb_attr: f32,
    omega: f32,
    c1: f32,
    c2: f32,
    bound: Option<f32>,
) -> f32 {
    let v2 = omega * v + c1 * l * (pb_attr - p) + c2 * g * (gb_attr - p);
    match bound {
        Some(b) => v2.clamp(-b, b),
        None => v2,
    }
}

/// One element of the position update (paper Equation 2, element form).
#[inline(always)]
pub fn position_update_elem(p: f32, v_new: f32) -> f32 {
    p + v_new
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_formula_matches_equation_one() {
        // v' = 0.9*1 + 2*0.5*(3-2) + 2*0.25*(4-2) = 0.9 + 1 + 1 = 2.9
        let v = velocity_update_elem(1.0, 2.0, 0.5, 0.25, 3.0, 4.0, 0.9, 2.0, 2.0, None);
        assert!((v - 2.9).abs() < 1e-6);
    }

    #[test]
    fn bound_clamps_both_sides() {
        let hi = velocity_update_elem(100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, Some(5.0));
        assert_eq!(hi, 5.0);
        let lo = velocity_update_elem(-100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, Some(5.0));
        assert_eq!(lo, -5.0);
        let mid = velocity_update_elem(3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, Some(5.0));
        assert_eq!(mid, 3.0);
    }

    #[test]
    fn position_is_simple_addition() {
        assert_eq!(position_update_elem(1.5, -0.5), 1.0);
    }

    #[test]
    fn zero_coefficients_freeze_the_particle() {
        let v = velocity_update_elem(0.0, 7.0, 0.9, 0.9, 1.0, 2.0, 0.0, 0.0, 0.0, None);
        assert_eq!(v, 0.0);
        assert_eq!(position_update_elem(7.0, v), 7.0);
    }
}
