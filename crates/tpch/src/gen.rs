//! Deterministic dbgen-like data generator.
//!
//! Row counts scale with the scale factor as in the spec (lineitem ≈ 6M·SF).
//! Value distributions follow the spec where the 22 queries depend on them
//! (date ranges, limited categorical domains, comment words for the LIKE
//! predicates, country-code phone prefixes, per-part supplier assignment);
//! text that no query inspects is simplified.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_storage::{Catalog, TableBuilder};
use rdb_vector::types::date_from_ymd;
use rdb_vector::{DataType, Schema, Value};

/// The 25 nations with their region assignment (spec Appendix).
pub const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("ROMANIA", 3),
    ("RUSSIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
    ("CHINA", 2),
];

/// The five regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 92 part-name color words (Q9/Q20 pick their COLOR parameter here).
pub const COLORS: [&str; 92] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
    "grey",
    "honeydew",
    "hot",
    "indian",
    "ivory",
    "khaki",
    "lace",
    "lavender",
    "lawn",
    "lemon",
    "light",
    "lime",
    "linen",
    "magenta",
    "maroon",
    "medium",
    "metallic",
    "midnight",
    "mint",
    "misty",
    "moccasin",
    "navajo",
    "navy",
    "olive",
    "orange",
    "orchid",
    "pale",
    "papaya",
    "peach",
    "peru",
    "pink",
    "plum",
    "powder",
    "puff",
    "purple",
    "red",
    "rose",
    "rosy",
    "royal",
    "saddle",
    "salmon",
    "sandy",
    "seashell",
    "sienna",
    "sky",
    "slate",
    "smoke",
    "snow",
    "spring",
    "steel",
    "tan",
    "thistle",
    "tomato",
    "turquoise",
    "violet",
    "wheat",
    "white",
    "yellow",
];

/// Type syllables (`p_type` = one of 6×5×5 = 150 strings).
pub const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second syllable.
pub const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third syllable.
pub const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Container syllables (5×8 = 40 containers).
pub const CONTAINER_S1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
/// Second container syllable.
pub const CONTAINER_S2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Market segments.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Ship instructions.
pub const SHIP_INSTRUCTS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// Comment filler vocabulary; includes the Q13 parameter words.
const COMMENT_WORDS: [&str; 16] = [
    "special",
    "pending",
    "unusual",
    "express",
    "packages",
    "requests",
    "accounts",
    "deposits",
    "carefully",
    "quickly",
    "final",
    "ironic",
    "even",
    "bold",
    "silent",
    "furious",
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor; SF 1 ≈ 6M lineitems. The experiments use small SFs
    /// (0.01–0.25) since everything is in memory.
    pub scale: f64,
    /// RNG seed (the same seed reproduces the same database).
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 42,
        }
    }
}

impl TpchConfig {
    fn count(&self, base: f64) -> usize {
        ((base * self.scale) as usize).max(1)
    }
}

fn comment(rng: &mut SmallRng, words: usize) -> String {
    let mut s = String::new();
    for i in 0..words {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())]);
    }
    s
}

/// Generate the eight TPC-H tables into a fresh catalog.
pub fn generate(config: &TpchConfig) -> Arc<Catalog> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut cat = Catalog::new();

    // region
    let mut region = TableBuilder::new(
        "region",
        Schema::from_pairs([("r_regionkey", DataType::Int), ("r_name", DataType::Str)]),
        REGIONS.len(),
    );
    for (i, name) in REGIONS.iter().enumerate() {
        region.push_row(vec![Value::Int(i as i64), Value::str(*name)]);
    }
    cat.register(region.finish()).expect("register table");

    // nation
    let mut nation = TableBuilder::new(
        "nation",
        Schema::from_pairs([
            ("n_nationkey", DataType::Int),
            ("n_name", DataType::Str),
            ("n_regionkey", DataType::Int),
        ]),
        NATIONS.len(),
    );
    for (i, (name, region)) in NATIONS.iter().enumerate() {
        nation.push_row(vec![
            Value::Int(i as i64),
            Value::str(*name),
            Value::Int(*region as i64),
        ]);
    }
    cat.register(nation.finish()).expect("register table");

    // supplier
    let n_supp = config.count(10_000.0);
    let mut supplier = TableBuilder::new(
        "supplier",
        Schema::from_pairs([
            ("s_suppkey", DataType::Int),
            ("s_name", DataType::Str),
            ("s_address", DataType::Str),
            ("s_nationkey", DataType::Int),
            ("s_phone", DataType::Str),
            ("s_acctbal", DataType::Float),
            ("s_comment", DataType::Str),
        ]),
        n_supp,
    );
    for i in 1..=n_supp {
        let nk = rng.gen_range(0..25) as i64;
        // Spec: exactly 5 per 10k suppliers carry the complaint string.
        let s_comment = if i % 1987 == 3 {
            format!(
                "{} Customer said Complaints {}",
                comment(&mut rng, 2),
                comment(&mut rng, 2)
            )
        } else {
            comment(&mut rng, 5)
        };
        supplier.push_row(vec![
            Value::Int(i as i64),
            Value::str(format!("Supplier#{i:09}")),
            Value::str(format!("addr-{}", rng.gen_range(0..100000))),
            Value::Int(nk),
            Value::str(format!("{}-{:07}", 10 + nk, rng.gen_range(0..10_000_000))),
            Value::Float(rng.gen_range(-999.99..9999.99)),
            Value::str(s_comment),
        ]);
    }
    cat.register(supplier.finish()).expect("register table");

    // part
    let n_part = config.count(200_000.0);
    let mut part = TableBuilder::new(
        "part",
        Schema::from_pairs([
            ("p_partkey", DataType::Int),
            ("p_name", DataType::Str),
            ("p_mfgr", DataType::Str),
            ("p_brand", DataType::Str),
            ("p_type", DataType::Str),
            ("p_size", DataType::Int),
            ("p_container", DataType::Str),
            ("p_retailprice", DataType::Float),
        ]),
        n_part,
    );
    for i in 1..=n_part {
        let c1 = COLORS[rng.gen_range(0..COLORS.len())];
        let c2 = COLORS[rng.gen_range(0..COLORS.len())];
        let m = rng.gen_range(1..=5);
        let b = rng.gen_range(1..=5);
        let ptype = format!(
            "{} {} {}",
            TYPE_S1[rng.gen_range(0..TYPE_S1.len())],
            TYPE_S2[rng.gen_range(0..TYPE_S2.len())],
            TYPE_S3[rng.gen_range(0..TYPE_S3.len())]
        );
        let container = format!(
            "{} {}",
            CONTAINER_S1[rng.gen_range(0..CONTAINER_S1.len())],
            CONTAINER_S2[rng.gen_range(0..CONTAINER_S2.len())]
        );
        part.push_row(vec![
            Value::Int(i as i64),
            Value::str(format!("{c1} {c2}")),
            Value::str(format!("Manufacturer#{m}")),
            Value::str(format!("Brand#{m}{b}")),
            Value::str(ptype),
            Value::Int(rng.gen_range(1..=50)),
            Value::str(container),
            Value::Float(900.0 + (i % 1000) as f64 / 10.0),
        ]);
    }
    cat.register(part.finish()).expect("register table");

    // partsupp: 4 suppliers per part.
    let mut partsupp = TableBuilder::new(
        "partsupp",
        Schema::from_pairs([
            ("ps_partkey", DataType::Int),
            ("ps_suppkey", DataType::Int),
            ("ps_availqty", DataType::Int),
            ("ps_supplycost", DataType::Float),
        ]),
        n_part * 4,
    );
    for p in 1..=n_part {
        for j in 0..4usize {
            let s = (p + j * (n_supp / 4 + 1)) % n_supp + 1;
            partsupp.push_row(vec![
                Value::Int(p as i64),
                Value::Int(s as i64),
                Value::Int(rng.gen_range(1..=9999)),
                Value::Float(rng.gen_range(1.0..1000.0)),
            ]);
        }
    }
    cat.register(partsupp.finish()).expect("register table");

    // customer
    let n_cust = config.count(150_000.0);
    let mut customer = TableBuilder::new(
        "customer",
        Schema::from_pairs([
            ("c_custkey", DataType::Int),
            ("c_name", DataType::Str),
            ("c_address", DataType::Str),
            ("c_nationkey", DataType::Int),
            ("c_phone", DataType::Str),
            ("c_acctbal", DataType::Float),
            ("c_mktsegment", DataType::Str),
        ]),
        n_cust,
    );
    for i in 1..=n_cust {
        let nk = rng.gen_range(0..25) as i64;
        customer.push_row(vec![
            Value::Int(i as i64),
            Value::str(format!("Customer#{i:09}")),
            Value::str(format!("addr-{}", rng.gen_range(0..100000))),
            Value::Int(nk),
            // Country code 10..34 = 10 + nationkey (Q22's substring).
            Value::str(format!("{}-{:07}", 10 + nk, rng.gen_range(0..10_000_000))),
            Value::Float(rng.gen_range(-999.99..9999.99)),
            Value::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
        ]);
    }
    cat.register(customer.finish()).expect("register table");

    // orders + lineitem
    let n_orders = config.count(1_500_000.0);
    let start = date_from_ymd(1992, 1, 1);
    let end = date_from_ymd(1998, 8, 2) - 151; // spec: last order date
    let cutoff = date_from_ymd(1995, 6, 17);
    let mut orders = TableBuilder::new(
        "orders",
        Schema::from_pairs([
            ("o_orderkey", DataType::Int),
            ("o_custkey", DataType::Int),
            ("o_orderstatus", DataType::Str),
            ("o_totalprice", DataType::Float),
            ("o_orderdate", DataType::Date),
            ("o_orderpriority", DataType::Str),
            ("o_shippriority", DataType::Int),
            ("o_comment", DataType::Str),
        ]),
        n_orders,
    );
    let mut lineitem = TableBuilder::new(
        "lineitem",
        Schema::from_pairs([
            ("l_orderkey", DataType::Int),
            ("l_partkey", DataType::Int),
            ("l_suppkey", DataType::Int),
            ("l_linenumber", DataType::Int),
            ("l_quantity", DataType::Float),
            ("l_extendedprice", DataType::Float),
            ("l_discount", DataType::Float),
            ("l_tax", DataType::Float),
            ("l_returnflag", DataType::Str),
            ("l_linestatus", DataType::Str),
            ("l_shipdate", DataType::Date),
            ("l_commitdate", DataType::Date),
            ("l_receiptdate", DataType::Date),
            ("l_shipinstruct", DataType::Str),
            ("l_shipmode", DataType::Str),
        ]),
        n_orders * 4,
    );
    // Each fixed string as one shared value, cloned per row: the column
    // builders intern every string, so a fresh copy per row is garbage.
    let values = |xs: &[&str]| xs.iter().map(Value::str).collect::<Vec<_>>();
    let [r, a, n, o_, f] = ["R", "A", "N", "O", "F"].map(Value::str);
    let (instructs, modes, priorities) = (
        values(&SHIP_INSTRUCTS),
        values(&SHIP_MODES),
        values(&PRIORITIES),
    );
    for o in 1..=n_orders {
        let orderdate = rng.gen_range(start..=end);
        let lines = rng.gen_range(1..=7usize);
        let mut total = 0.0;
        for ln in 1..=lines {
            let partkey = rng.gen_range(1..=n_part) as i64;
            let suppkey = ((partkey as usize + ln * (n_supp / 4 + 1)) % n_supp + 1) as i64;
            let qty = rng.gen_range(1..=50) as f64;
            let price = qty * (900.0 + (partkey % 1000) as f64 / 10.0) / 10.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let returnflag = if receiptdate <= cutoff {
                if rng.gen_bool(0.5) {
                    &r
                } else {
                    &a
                }
            } else {
                &n
            };
            let linestatus = if shipdate > cutoff { &o_ } else { &f };
            total += price * (1.0 - discount) * (1.0 + tax);
            lineitem.push_row(vec![
                Value::Int(o as i64),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(ln as i64),
                Value::Float(qty),
                Value::Float(price),
                Value::Float(discount),
                Value::Float(tax),
                returnflag.clone(),
                linestatus.clone(),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                instructs[rng.gen_range(0..SHIP_INSTRUCTS.len())].clone(),
                modes[rng.gen_range(0..SHIP_MODES.len())].clone(),
            ]);
        }
        let status = if orderdate < cutoff { &f } else { &o_ };
        orders.push_row(vec![
            Value::Int(o as i64),
            Value::Int(rng.gen_range(1..=n_cust) as i64),
            status.clone(),
            Value::Float(total),
            Value::Date(orderdate),
            priorities[rng.gen_range(0..PRIORITIES.len())].clone(),
            Value::Int(0),
            Value::str(comment(&mut rng, 6)),
        ]);
    }
    cat.register(orders.finish()).expect("register table");
    cat.register(lineitem.finish()).expect("register table");

    Arc::new(cat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_tables_at_scale() {
        let cat = generate(&TpchConfig {
            scale: 0.002,
            seed: 7,
        });
        for t in [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ] {
            assert!(cat.get(t).is_some(), "missing table {t}");
        }
        assert_eq!(cat.get("region").unwrap().rows(), 5);
        assert_eq!(cat.get("nation").unwrap().rows(), 25);
        let orders = cat.get("orders").unwrap().rows();
        assert_eq!(orders, 3000);
        let li = cat.get("lineitem").unwrap().rows();
        assert!(li >= orders, "≥1 lineitem per order");
        assert_eq!(
            cat.get("partsupp").unwrap().rows(),
            cat.get("part").unwrap().rows() * 4
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&TpchConfig {
            scale: 0.001,
            seed: 9,
        });
        let b = generate(&TpchConfig {
            scale: 0.001,
            seed: 9,
        });
        let ta = a.get("lineitem").unwrap();
        let tb = b.get("lineitem").unwrap();
        assert_eq!(ta.rows(), tb.rows());
        assert_eq!(
            ta.column_by_name("l_quantity").unwrap().as_floats()[..50],
            tb.column_by_name("l_quantity").unwrap().as_floats()[..50]
        );
        let c = generate(&TpchConfig {
            scale: 0.001,
            seed: 10,
        });
        assert_ne!(
            ta.column_by_name("l_quantity").unwrap().as_floats()[..50],
            c.get("lineitem")
                .unwrap()
                .column_by_name("l_quantity")
                .unwrap()
                .as_floats()[..50]
        );
    }

    #[test]
    fn value_domains_respected() {
        let cat = generate(&TpchConfig {
            scale: 0.002,
            seed: 3,
        });
        let li = cat.get("lineitem").unwrap();
        let q = li.column_by_name("l_quantity").unwrap();
        assert!(q.as_floats().iter().all(|&x| (1.0..=50.0).contains(&x)));
        let d = li.column_by_name("l_discount").unwrap();
        assert!(d
            .as_floats()
            .iter()
            .all(|&x| (0.0..=0.1 + 1e-9).contains(&x)));
        let part = cat.get("part").unwrap();
        let sizes = part.column_by_name("p_size").unwrap();
        assert!(sizes.as_ints().iter().all(|&s| (1..=50).contains(&s)));
        // Ship < receipt always.
        let ship = li.column_by_name("l_shipdate").unwrap();
        let rec = li.column_by_name("l_receiptdate").unwrap();
        assert!(ship
            .as_dates()
            .iter()
            .zip(rec.as_dates())
            .all(|(s, r)| s < r));
    }

    #[test]
    fn q13_comment_words_present_but_not_universal() {
        let cat = generate(&TpchConfig {
            scale: 0.01,
            seed: 3,
        });
        let orders = cat.get("orders").unwrap();
        let comments = orders.column_by_name("o_comment").unwrap();
        let comments = comments.as_strs();
        let hits = comments
            .iter()
            .filter(|c| rdb_expr::like::like_match(c, "%special%requests%"))
            .count();
        assert!(hits > 0, "some orders must match the Q13 pattern");
        assert!(hits < comments.len() / 2, "but not most of them");
    }
}
