//! Transformer model specifications and the paper's seven-model zoo.
//!
//! The performance model (paper §4, Table 1) consumes a handful of model
//! constants: sequence length `s`, hidden size `h`, layer count `l` and
//! total parameter size `P`. [`ModelSpec`] carries these plus enough
//! metadata (family, default global batch size) to drive plan enumeration
//! and trace generation. [`ModelSpec::zoo`] returns the seven evaluation
//! models of Table 2, from ViT (86 M) to LLaMA-30B.

use std::fmt;

/// Broad architecture family; used by the trace generator to decide which
/// plans are sensible candidates (the paper disables TP/PP for the small
/// encoder models in the Base trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Vision transformer (ViT).
    Vision,
    /// Encoder-only language model (BERT, RoBERTa).
    Encoder,
    /// Encoder–decoder language model (T5).
    EncoderDecoder,
    /// Decoder-only language model (GPT-2, LLaMA).
    Decoder,
}

impl fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelFamily::Vision => write!(f, "vision"),
            ModelFamily::Encoder => write!(f, "encoder"),
            ModelFamily::EncoderDecoder => write!(f, "encoder-decoder"),
            ModelFamily::Decoder => write!(f, "decoder"),
        }
    }
}

/// A transformer model description: everything the performance model and the
/// memory estimator need to know about a model type.
///
/// Jobs of the same model type share one fitted performance model (paper
/// §3: "it can also be reused across multiple jobs of the same model
/// type"), so `name` doubles as the model-type flag users attach to jobs.
///
/// ```
/// use rubick_model::ModelSpec;
/// let gpt2 = ModelSpec::gpt2_xl();
/// assert_eq!(gpt2.layers, 48);
/// assert!(gpt2.params > 1.4e9 && gpt2.params < 1.6e9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model-type name (e.g. `"gpt2-1.5b"`); the key for model reuse.
    pub name: String,
    /// Architecture family.
    pub family: ModelFamily,
    /// Total parameter count `P`.
    pub params: f64,
    /// Number of transformer layers `l`.
    pub layers: u32,
    /// Hidden size `h`.
    pub hidden: u32,
    /// Sequence length `s` (tokens for LMs, patches for ViT).
    pub seq_len: u32,
    /// Default global batch size `b` used when a job does not specify one.
    pub default_batch: u32,
}

impl ModelSpec {
    /// ViT-Base, 86 M parameters, ImageNet-1K (Table 2 row 1).
    pub fn vit_base() -> Self {
        ModelSpec {
            name: "vit-86m".into(),
            family: ModelFamily::Vision,
            params: 86.0e6,
            layers: 12,
            hidden: 768,
            seq_len: 197,
            default_batch: 128,
        }
    }

    /// RoBERTa-Large, 355 M parameters, WikiText-2 (Table 2 row 2).
    pub fn roberta_large() -> Self {
        ModelSpec {
            name: "roberta-355m".into(),
            family: ModelFamily::Encoder,
            params: 355.0e6,
            layers: 24,
            hidden: 1024,
            seq_len: 512,
            default_batch: 64,
        }
    }

    /// BERT-Large, 336 M parameters, Wikipedia (Table 2 row 3).
    pub fn bert_large() -> Self {
        ModelSpec {
            name: "bert-336m".into(),
            family: ModelFamily::Encoder,
            params: 336.0e6,
            layers: 24,
            hidden: 1024,
            seq_len: 512,
            default_batch: 64,
        }
    }

    /// T5, 1.2 B parameters, Wikipedia (Table 2 row 4).
    pub fn t5_1b() -> Self {
        ModelSpec {
            name: "t5-1.2b".into(),
            family: ModelFamily::EncoderDecoder,
            params: 1.2e9,
            layers: 48,
            hidden: 1536,
            seq_len: 512,
            default_batch: 32,
        }
    }

    /// GPT-2 XL, 1.5 B parameters, Wikipedia (Table 2 row 5).
    pub fn gpt2_xl() -> Self {
        ModelSpec {
            name: "gpt2-1.5b".into(),
            family: ModelFamily::Decoder,
            params: 1.5e9,
            layers: 48,
            hidden: 1600,
            seq_len: 1024,
            default_batch: 16,
        }
    }

    /// LLaMA-2-7B, WuDaoCorpora (Table 2 row 6).
    pub fn llama2_7b() -> Self {
        ModelSpec {
            name: "llama2-7b".into(),
            family: ModelFamily::Decoder,
            params: 7.0e9,
            layers: 32,
            hidden: 4096,
            seq_len: 2048,
            default_batch: 32,
        }
    }

    /// LLaMA-30B, WuDaoCorpora (Table 2 row 7).
    pub fn llama_30b() -> Self {
        ModelSpec {
            name: "llama-30b".into(),
            family: ModelFamily::Decoder,
            params: 30.0e9,
            layers: 60,
            hidden: 6656,
            seq_len: 2048,
            default_batch: 64,
        }
    }

    /// The seven evaluation models of Table 2, small to large.
    pub fn zoo() -> Vec<ModelSpec> {
        vec![
            ModelSpec::vit_base(),
            ModelSpec::roberta_large(),
            ModelSpec::bert_large(),
            ModelSpec::t5_1b(),
            ModelSpec::gpt2_xl(),
            ModelSpec::llama2_7b(),
            ModelSpec::llama_30b(),
        ]
    }

    /// Looks up a zoo model by its `name` field.
    ///
    /// ```
    /// use rubick_model::ModelSpec;
    /// assert!(ModelSpec::by_name("gpt2-1.5b").is_some());
    /// assert!(ModelSpec::by_name("alexnet").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<ModelSpec> {
        ModelSpec::zoo().into_iter().find(|m| m.name == name)
    }

    /// Parameter size in bytes at fp16/bf16 precision (2 bytes/parameter).
    ///
    /// This is the `P` that enters communication-volume formulas: the
    /// gradients exchanged by DP are "approximately as large as the
    /// parameter size" (paper §4.1).
    pub fn param_bytes(&self) -> f64 {
        2.0 * self.params
    }

    /// Parameter count in billions; the unit used by the optimizer-time
    /// terms so fitted `k_opt` values stay O(0.01–1).
    pub fn params_b(&self) -> f64 {
        self.params / 1.0e9
    }

    /// Forward-pass floating point operations per sample for the full model.
    ///
    /// Standard dense-transformer estimate: per layer and sample,
    /// `24·s·h² + 4·s²·h` FLOPs (matmuls plus attention), summed over `l`
    /// layers. The absolute scale only matters relative to the profiled
    /// effective GPU throughput, so the usual caveats about exact constants
    /// are harmless here.
    pub fn fwd_flops_per_sample(&self) -> f64 {
        let s = self.seq_len as f64;
        let h = self.hidden as f64;
        let l = self.layers as f64;
        l * (24.0 * s * h * h + 4.0 * s * s * h)
    }

    /// Whether this model is "large" in the sense of the paper's Fig. 11
    /// (LLaMA-2-7B and LLaMA-30B).
    pub fn is_large(&self) -> bool {
        self.params >= 5.0e9
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.2}B params)", self.name, self.params_b())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_seven_models_in_table2_order() {
        let zoo = ModelSpec::zoo();
        assert_eq!(zoo.len(), 7);
        // Table 2 order: ViT first, LLaMA-30B last.
        assert_eq!(zoo.first().unwrap().name, "vit-86m");
        assert_eq!(zoo.last().unwrap().name, "llama-30b");
        assert!(zoo.first().unwrap().params < zoo.last().unwrap().params);
    }

    #[test]
    fn zoo_names_are_unique() {
        let zoo = ModelSpec::zoo();
        let mut names: Vec<_> = zoo.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn by_name_roundtrip() {
        for m in ModelSpec::zoo() {
            assert_eq!(ModelSpec::by_name(&m.name).unwrap(), m);
        }
    }

    #[test]
    fn only_llamas_are_large() {
        let large: Vec<_> = ModelSpec::zoo()
            .into_iter()
            .filter(|m| m.is_large())
            .map(|m| m.name)
            .collect();
        assert_eq!(
            large,
            vec!["llama2-7b".to_string(), "llama-30b".to_string()]
        );
    }

    #[test]
    fn flops_scale_superlinearly_with_hidden() {
        let small = ModelSpec::vit_base().fwd_flops_per_sample();
        let big = ModelSpec::llama2_7b().fwd_flops_per_sample();
        assert!(big > 100.0 * small);
    }

    #[test]
    fn param_bytes_is_2x_params() {
        let m = ModelSpec::gpt2_xl();
        assert!((m.param_bytes() - 3.0e9).abs() < 1.0);
    }
}
