//! Sample statistics shared by the experiment harnesses.

/// Fraction of the sample for which `pred` holds — e.g. the paper's
/// "relative difference greater than 0.5 with probability 65%".
pub fn fraction_where(xs: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| pred(x)).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_where_counts_matches() {
        let xs = [0.1, 0.6, 0.7, 0.4];
        assert_eq!(fraction_where(&xs, |x| x > 0.5), 0.5);
        assert_eq!(fraction_where(&[], |_| true), 0.0);
    }
}
