//! SQL `LIKE` pattern matching.
//!
//! Supports `%` (any run of characters, including empty) and `_` (exactly one
//! character). Matching uses the classic two-pointer greedy algorithm with
//! backtracking on the most recent `%`, which is O(n·m) worst case but linear
//! on the pattern shapes that appear in practice (`prefix%`, `%infix%`,
//! `%w1%w2%`). It runs over bytes when that is exact — an ASCII pattern
//! with no `_` (ASCII bytes never occur inside a multi-byte character), or
//! ASCII text — and over characters otherwise, so `_` matches one
//! character, not one byte.

/// Does `text` match SQL LIKE `pattern`?
pub fn like_match(text: &str, pattern: &str) -> bool {
    if pattern.is_ascii() && (!pattern.contains('_') || text.is_ascii()) {
        return match_units(text.as_bytes(), pattern.as_bytes(), b'%', b'_');
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    match_units(&t, &p, '%', '_')
}

/// The matcher over units (bytes or characters) with wildcards `any`
/// (`%`) and `one` (`_`).
fn match_units<T: Copy + PartialEq>(t: &[T], p: &[T], any: T, one: T) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize);
    // Position to resume from when backtracking to the last `%`.
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        if pi < p.len() && (p[pi] == one || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == any {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last `%` consume one more character.
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    // Remaining pattern must be all `%`.
    while pi < p.len() && p[pi] == any {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::like_match;

    #[test]
    fn exact_match() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(!like_match("abc", "ab"));
        assert!(!like_match("ab", "abc"));
    }

    #[test]
    fn underscore_single_char() {
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("ac", "a_c"));
        assert!(like_match("abc", "___"));
        assert!(!like_match("abcd", "___"));
    }

    #[test]
    fn percent_prefix_suffix_infix() {
        assert!(like_match("PROMO BRUSHED STEEL", "PROMO%"));
        assert!(!like_match("STANDARD STEEL", "PROMO%"));
        assert!(like_match("large polished copper", "%copper%"));
        assert!(like_match("copper", "%copper%"));
        assert!(like_match("x-copper-y", "%copper%"));
        assert!(!like_match("coppe", "%copper%"));
        assert!(like_match("MEDIUM POLISHED", "%POLISHED"));
    }

    #[test]
    fn multi_wildcard_words() {
        // The Q13 / Q16 / SkyServer shapes: '%w1%w2%'.
        assert!(like_match(
            "xx special yy requests zz",
            "%special%requests%"
        ));
        assert!(!like_match(
            "xx requests yy special zz",
            "%special%requests%"
        ));
        assert!(like_match("specialrequests", "%special%requests%"));
        assert!(like_match(
            "Customer say Complaints loud",
            "%Customer%Complaints%"
        ));
    }

    #[test]
    fn empty_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(like_match("", "%%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("a", ""));
    }

    #[test]
    fn percent_backtracking() {
        // Requires revisiting the last `%` several times.
        assert!(like_match("aaab", "%ab"));
        assert!(like_match("abababab", "%ab%ab"));
        assert!(!like_match("ababa", "%ab%ab%b"));
        assert!(like_match("mississippi", "%iss%ippi"));
    }

    #[test]
    fn underscore_matches_one_character() {
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("héllo", "%é%"));
        assert!(like_match("日本語", "_本_"));
        assert!(!like_match("日本語", "_本"));
        assert!(like_match("naïve café", "%_fé"));
        // Non-ASCII in the pattern only.
        assert!(!like_match("ab", "_é"));
        assert!(like_match("aé", "_é"));
    }

    #[test]
    fn mixed_wildcards() {
        assert!(like_match("STEEL BRUSHED", "STEEL_BRUSHED"));
        assert!(like_match("abcde", "a%_e"));
        assert!(!like_match("ae", "a%_e")); // `_` needs one char after `%`
    }
}
