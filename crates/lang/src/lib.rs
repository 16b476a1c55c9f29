//! **RheemLatin**: the PigLatin-inspired dataflow language of §5.
//!
//! Procedural statements bind named data flows; UDFs are referenced by name
//! from a [`UdfRegistry`] (the Rust analogue of Listing 1's
//! `import '/sgd/udfs.class'`); `with platform '…'` pins operators and
//! `with broadcast x` attaches broadcast edges. Keywords are extensible via
//! [`Parser::alias`], mirroring the paper's configurable keyword mappings.
//!
//! ```text
//! lines  = load 'hdfs://myData.csv';
//! words  = flatmap lines -> {split};
//! pairs  = map words -> {pair};
//! counts = reduceby pairs -> {word} {sum} with platform 'JavaStreams';
//! store counts 'hdfs://out/wc';
//! ```

#![warn(missing_docs)]

mod parse;
mod token;

pub use parse::{Parser, Program};
pub use token::{tokenize, Token};

use std::collections::HashMap;
use std::sync::Arc;

use rheem_core::udf::{FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};

/// A named UDF available to RheemLatin programs.
#[derive(Clone)]
pub enum UdfEntry {
    /// One-to-one transformation.
    Map(MapUdf),
    /// One-to-many transformation.
    FlatMap(FlatMapUdf),
    /// Boolean predicate.
    Predicate(PredicateUdf),
    /// Key extractor.
    Key(KeyUdf),
    /// Associative combiner.
    Reduce(ReduceUdf),
}

/// Registry binding UDF names to Rust closures.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    entries: HashMap<Arc<str>, UdfEntry>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a UDF under a name.
    pub fn register(&mut self, name: impl Into<Arc<str>>, entry: UdfEntry) -> &mut Self {
        self.entries.insert(name.into(), entry);
        self
    }

    /// Convenience: register a map UDF.
    pub fn map(&mut self, name: &str, udf: MapUdf) -> &mut Self {
        self.register(name, UdfEntry::Map(udf))
    }

    /// Convenience: register a flat-map UDF.
    pub fn flat_map(&mut self, name: &str, udf: FlatMapUdf) -> &mut Self {
        self.register(name, UdfEntry::FlatMap(udf))
    }

    /// Convenience: register a predicate UDF.
    pub fn predicate(&mut self, name: &str, udf: PredicateUdf) -> &mut Self {
        self.register(name, UdfEntry::Predicate(udf))
    }

    /// Convenience: register a key UDF.
    pub fn key(&mut self, name: &str, udf: KeyUdf) -> &mut Self {
        self.register(name, UdfEntry::Key(udf))
    }

    /// Convenience: register a combiner UDF.
    pub fn reduce(&mut self, name: &str, udf: ReduceUdf) -> &mut Self {
        self.register(name, UdfEntry::Reduce(udf))
    }

    /// Look up an entry.
    pub fn get(&self, name: &str) -> Option<&UdfEntry> {
        self.entries.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::value::Value;

    fn wc_registry() -> UdfRegistry {
        let mut reg = UdfRegistry::new();
        reg.flat_map(
            "split",
            FlatMapUdf::new("split", |v| {
                v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
            }),
        )
        .map("pair", MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce(
            "sumcount",
            ReduceUdf::new("sumcount", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                )
            }),
        )
        .key("word", KeyUdf::field(0));
        reg
    }

    #[test]
    fn wordcount_program_parses_and_runs() {
        let dir = std::env::temp_dir().join("rheem_latin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        rheem_storage::write_lines(&path, ["a b a", "c a"]).unwrap();

        let src = format!(
            "lines = load '{}';\n\
             words = flatmap lines -> {{split}};\n\
             pairs = map words -> {{pair}};\n\
             counts = reduceby pairs -> {{word}} {{sumcount}};\n\
             collect counts;",
            path.display()
        );
        let program = Parser::new(wc_registry()).parse(&src).unwrap();
        let ctx =
            RheemContext::new().with_platform(&platform_javastreams::JavaStreamsPlatform::new());
        let result = ctx.execute(&program.plan).unwrap();
        let sink = program.sinks["counts"];
        let data = result.sink(sink).unwrap();
        assert_eq!(data.len(), 3);
        let a = data.iter().find(|v| v.field(0).as_str() == Some("a")).unwrap();
        assert_eq!(a.field(1).as_int(), Some(3));
    }

    #[test]
    fn with_platform_pins_operator() {
        let src = "xs = values 1 2 3;\n\
                   ys = map xs -> {pair} with platform 'java.streams';\n\
                   collect ys;";
        let program = Parser::new(wc_registry()).parse(src).unwrap();
        let pinned = program
            .plan
            .operators()
            .iter()
            .find(|n| n.op.kind() == rheem_core::plan::OpKind::Map)
            .unwrap();
        assert_eq!(pinned.target_platform, Some(rheem_core::platform::ids::JAVA_STREAMS));
    }

    #[test]
    fn repeat_block_builds_loop() {
        let mut reg = wc_registry();
        reg.map("inc", MapUdf::new("inc", |v| Value::from(v.as_int().unwrap_or(0) + 1)));
        let src = "w = values 0;\n\
                   out = repeat 5 w { w2 = map w -> {inc}; yield w2; };\n\
                   collect out;";
        let program = Parser::new(reg).parse(src).unwrap();
        let ctx =
            RheemContext::new().with_platform(&platform_javastreams::JavaStreamsPlatform::new());
        let result = ctx.execute(&program.plan).unwrap();
        let data = result.sink(program.sinks["out"]).unwrap();
        assert_eq!(data[0].as_int(), Some(5));
    }

    /// A `repeat` inside a `repeat` lowers through the same builder loop
    /// path as the fluent API: the inner loop re-runs in every outer
    /// iteration.
    #[test]
    fn nested_repeat_reruns_the_inner_loop() {
        let mut reg = wc_registry();
        reg.map("inc", MapUdf::new("inc", |v| Value::from(v.as_int().unwrap_or(0) + 1)));
        reg.map("dbl", MapUdf::new("dbl", |v| Value::from(v.as_int().unwrap_or(0) * 2)));
        let src = "w = values 0 1 2 3 4;\n\
                   out = repeat 3 w { a = map w -> {inc}; \
                   b = repeat 2 a { c = map a -> {dbl}; yield c; }; yield b; };\n\
                   collect out;";
        let program = Parser::new(reg).parse(src).unwrap();
        let ctx =
            RheemContext::new().with_platform(&platform_javastreams::JavaStreamsPlatform::new());
        let result = ctx.execute(&program.plan).unwrap();
        let mut out: Vec<i64> =
            result.sink(program.sinks["out"]).unwrap().iter().filter_map(Value::as_int).collect();
        out.sort();
        assert_eq!(out, vec![84, 148, 212, 276, 340]);
    }

    #[test]
    fn broadcast_clause_attaches() {
        let mut reg = wc_registry();
        reg.map(
            "usebc",
            MapUdf::with_ctx("usebc", |v, ctx| {
                Value::from(v.as_int().unwrap_or(0) + ctx.get_or_empty("ws").len() as i64)
            }),
        );
        let src = "ws = values 9 9;\n\
                   xs = values 1;\n\
                   ys = map xs -> {usebc} with broadcast ws;\n\
                   collect ys;";
        let program = Parser::new(reg).parse(src).unwrap();
        let ctx =
            RheemContext::new().with_platform(&platform_javastreams::JavaStreamsPlatform::new());
        let result = ctx.execute(&program.plan).unwrap();
        assert_eq!(result.sink(program.sinks["ys"]).unwrap()[0].as_int(), Some(3));
    }

    #[test]
    fn store_writes_a_text_file() {
        let dir = std::env::temp_dir().join("rheem_latin_store");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.txt");
        let src = format!("xs = values 3 1 2;\nys = distinct xs;\nstore ys '{}';", out.display());
        let program = Parser::new(UdfRegistry::new()).parse(&src).unwrap();
        let ctx =
            RheemContext::new().with_platform(&platform_javastreams::JavaStreamsPlatform::new());
        ctx.execute(&program.plan).unwrap();
        let lines = rheem_storage::read_lines(&out).unwrap();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn keyword_aliases_extend_the_language() {
        // The paper: config files add new keywords mapped to operators.
        let mut parser = Parser::new(wc_registry());
        parser.alias("tokenize", "flatmap");
        let src = "xs = values 'a b';\n\
                   ws = tokenize xs -> {split};\n\
                   collect ws;";
        let program = parser.parse(src).unwrap();
        let ctx =
            RheemContext::new().with_platform(&platform_javastreams::JavaStreamsPlatform::new());
        let result = ctx.execute(&program.plan).unwrap();
        assert_eq!(result.sink(program.sinks["ws"]).unwrap().len(), 2);
    }

    #[test]
    fn unknown_udf_and_var_error_nicely() {
        let err = Parser::new(UdfRegistry::new())
            .parse("ys = map xs -> {nope};")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown dataflow variable"), "{err}");
        let err = Parser::new(UdfRegistry::new())
            .parse("xs = values 1; ys = map xs -> {nope}; collect ys;")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown UDF"), "{err}");
    }
}
