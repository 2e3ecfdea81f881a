//! PE-array geometry helpers.

/// Factors a PE budget into the most square `rows x cols` divisor pair
/// (`rows <= cols`, `rows * cols == pes`). Unlike
/// [`pucost::PuConfig::square_geometry`], the count need not be a power of
/// two — budgets like Eyeriss's 192 PEs factor as 12 x 16.
///
/// # Panics
///
/// Panics if `pes == 0`.
pub fn factor_geometry(pes: usize) -> (usize, usize) {
    assert!(pes > 0, "PE count must be positive");
    let mut best = (1, pes);
    let mut d = 1;
    while d * d <= pes {
        if pes.is_multiple_of(d) {
            best = (d, pes / d);
        }
        d += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_factorizations() {
        assert_eq!(factor_geometry(192), (12, 16));
        assert_eq!(factor_geometry(256), (16, 16));
        assert_eq!(factor_geometry(2048), (32, 64));
        assert_eq!(factor_geometry(900), (30, 30));
        assert_eq!(factor_geometry(360), (18, 20));
        assert_eq!(factor_geometry(1), (1, 1));
    }

    #[test]
    fn primes_degrade_to_slabs() {
        assert_eq!(factor_geometry(13), (1, 13));
    }

    #[test]
    fn product_always_preserved() {
        for pes in 1..500 {
            let (r, c) = factor_geometry(pes);
            assert_eq!(r * c, pes);
            assert!(r <= c);
        }
    }
}
