//! XML-driven runtime analysis selection (paper Listing 1).
//!
//! ```xml
//! <sensei>
//!   <analysis type="catalyst" pipeline="pythonscript"
//!             filename="analysis.py" frequency="100" />
//!   <analysis type="vtu-checkpoint" arrays="pressure,velocity"
//!             output="chk" frequency="10" />
//! </sensei>
//! ```
//!
//! The key property the paper leans on: back ends are chosen **at runtime**
//! from the XML, without recompiling the simulation. Factories map an
//! `<analysis>` element to an [`AnalysisAdaptor`]; the built-in VTU
//! checkpoint writer is always the last factory tried, and the other back
//! ends (rendering, transport) register factories from their own crates.

use crate::analysis_adaptor::AnalysisAdaptor;
use crate::data_adaptor::DataAdaptor;
use crate::{Error, Result};
use commsim::Comm;
use meshdata::xml::{self, XmlNode};

/// Parsed attributes of one `<analysis>` element.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSpec {
    /// The `type` attribute.
    pub kind: String,
    /// Trigger period in timesteps (`frequency` attribute, default 1).
    pub frequency: u64,
    /// Whether the element is enabled (`enabled` attribute, default true).
    pub enabled: bool,
    /// All attributes, for factory-specific options.
    pub attrs: Vec<(String, String)>,
}

impl AnalysisSpec {
    /// Attribute lookup.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attribute with a default.
    pub fn attr_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.attr(name).unwrap_or(default)
    }

    /// Parse an attribute to a type with a default.
    pub fn attr_parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.attr(name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }
}

/// A factory turning an [`AnalysisSpec`] into a live adaptor. Returns
/// `Ok(None)` when the spec's type is not handled by this factory.
pub type AdaptorFactory =
    Box<dyn Fn(&AnalysisSpec) -> Result<Option<Box<dyn AnalysisAdaptor>>> + Send>;

struct Entry {
    spec: AnalysisSpec,
    adaptor: Box<dyn AnalysisAdaptor>,
    executions: u64,
}

/// The configured set of analyses, triggered by timestep.
pub struct ConfigurableAnalysis {
    entries: Vec<Entry>,
}

impl ConfigurableAnalysis {
    /// Parse the XML text and instantiate adaptors using `factories` (tried
    /// in order; the built-in factory from [`crate::analyses`] is appended
    /// automatically).
    ///
    /// # Errors
    /// Malformed XML, unknown analysis types, factory failures.
    pub fn from_xml(text: &str, factories: &[AdaptorFactory]) -> Result<Self> {
        let root = xml::parse(text).map_err(|e| Error::Config(format!("bad config XML: {e}")))?;
        if root.name != "sensei" {
            return Err(Error::Config(format!(
                "expected <sensei> root, found <{}>",
                root.name
            )));
        }
        let mut entries = Vec::new();
        for node in root.children_named("analysis") {
            let spec = parse_spec(node)?;
            if !spec.enabled {
                continue;
            }
            let adaptor = instantiate(&spec, factories)?;
            entries.push(Entry {
                spec,
                adaptor,
                executions: 0,
            });
        }
        Ok(Self { entries })
    }

    /// Number of enabled analyses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no analysis is enabled (the paper's "No Transport" /
    /// baseline SENSEI configuration).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Names and trigger frequencies of the enabled analyses.
    pub fn summaries(&self) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .map(|e| (e.spec.kind.clone(), e.spec.frequency))
            .collect()
    }

    /// Total executions per analysis so far.
    pub fn execution_counts(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.executions).collect()
    }

    /// Trigger every analysis whose frequency divides `step`. Returns
    /// `false` if any analysis requested a simulation stop.
    ///
    /// # Errors
    /// First analysis failure.
    pub fn execute(
        &mut self,
        comm: &mut Comm,
        step: u64,
        data: &mut dyn DataAdaptor,
    ) -> Result<bool> {
        let mut keep_going = true;
        for e in &mut self.entries {
            if step.is_multiple_of(e.spec.frequency) {
                e.executions += 1;
                keep_going &= e.adaptor.execute(comm, data)?;
            }
        }
        data.release_data();
        Ok(keep_going)
    }

    /// True when at least one analysis would run at `step` — the driver's
    /// publish gate: no trigger, no snapshot, no D2H traffic.
    pub fn triggers_at(&self, step: u64) -> bool {
        self.entries
            .iter()
            .any(|e| step.is_multiple_of(e.spec.frequency))
    }

    /// Deduplicated union of array names the analyses triggering at `step`
    /// will request, in first-seen order.
    pub fn arrays_at(&self, step: u64) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.entries {
            if step.is_multiple_of(e.spec.frequency) {
                for a in e.adaptor.required_arrays() {
                    if !out.contains(&a) {
                        out.push(a);
                    }
                }
            }
        }
        out
    }

    /// Finalize every adaptor.
    ///
    /// # Errors
    /// First finalize failure.
    pub fn finalize(&mut self, comm: &mut Comm) -> Result<()> {
        for e in &mut self.entries {
            e.adaptor.finalize(comm)?;
        }
        Ok(())
    }
}

fn parse_spec(node: &XmlNode) -> Result<AnalysisSpec> {
    let kind = node
        .attr("type")
        .ok_or_else(|| Error::Config("<analysis> missing 'type'".into()))?
        .to_string();
    let frequency = node
        .attr("frequency")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| Error::Config(format!("bad frequency '{s}'")))
        })
        .transpose()?
        .unwrap_or(1);
    if frequency == 0 {
        return Err(Error::Config("frequency must be >= 1".into()));
    }
    let enabled = node
        .attr("enabled")
        .map(|s| s != "0" && !s.eq_ignore_ascii_case("false"))
        .unwrap_or(true);
    Ok(AnalysisSpec {
        kind,
        frequency,
        enabled,
        attrs: node.attrs.clone(),
    })
}

fn instantiate(
    spec: &AnalysisSpec,
    factories: &[AdaptorFactory],
) -> Result<Box<dyn AnalysisAdaptor>> {
    for f in factories {
        if let Some(adaptor) = f(spec)? {
            return Ok(adaptor);
        }
    }
    if let Some(adaptor) = crate::analyses::builtin_factory(spec)? {
        return Ok(adaptor);
    }
    Err(Error::Config(format!(
        "no factory handles analysis type '{}'",
        spec.kind
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis_adaptor::NullAnalysis;
    use crate::data_adaptor::StaticDataAdaptor;
    use commsim::{run_ranks, MachineModel};
    use meshdata::MultiBlock;

    fn null_factory() -> AdaptorFactory {
        Box::new(|spec: &AnalysisSpec| {
            Ok((spec.kind == "null")
                .then(|| Box::new(NullAnalysis::new()) as Box<dyn AnalysisAdaptor>))
        })
    }

    #[test]
    fn parses_listing_1_shape() {
        let xml = r#"<sensei>
            <analysis type="null" frequency="100"/>
        </sensei>"#;
        let ca = ConfigurableAnalysis::from_xml(xml, &[null_factory()]).unwrap();
        assert_eq!(ca.len(), 1);
        assert_eq!(ca.summaries(), vec![("null".to_string(), 100)]);
    }

    #[test]
    fn frequency_gates_execution() {
        run_ranks(1, MachineModel::test_tiny(), |comm| {
            let xml = r#"<sensei><analysis type="null" frequency="10"/></sensei>"#;
            let mut ca = ConfigurableAnalysis::from_xml(xml, &[null_factory()]).unwrap();
            let mut da = StaticDataAdaptor::new("mesh", MultiBlock::new(1), 0.0, 0);
            for step in 1..=100u64 {
                ca.execute(comm, step, &mut da).unwrap();
            }
            assert_eq!(ca.execution_counts(), vec![10]);
        });
    }

    #[test]
    fn disabled_analyses_are_skipped() {
        let xml = r#"<sensei>
            <analysis type="null" enabled="0"/>
            <analysis type="null" enabled="false"/>
            <analysis type="null" enabled="true"/>
        </sensei>"#;
        let ca = ConfigurableAnalysis::from_xml(xml, &[null_factory()]).unwrap();
        assert_eq!(ca.len(), 1);
    }

    #[test]
    fn empty_config_is_the_no_transport_baseline() {
        let ca = ConfigurableAnalysis::from_xml("<sensei></sensei>", &[]).unwrap();
        assert!(ca.is_empty());
    }

    #[test]
    fn unknown_type_is_an_error() {
        let xml = r#"<sensei><analysis type="warp-drive"/></sensei>"#;
        let err = match ConfigurableAnalysis::from_xml(xml, &[null_factory()]) {
            Err(e) => e,
            Ok(_) => panic!("unknown type must fail"),
        };
        assert!(format!("{err}").contains("warp-drive"));
    }

    #[test]
    fn bad_xml_and_bad_frequency_are_errors() {
        assert!(ConfigurableAnalysis::from_xml("<oops>", &[]).is_err());
        assert!(ConfigurableAnalysis::from_xml("<wrong-root/>", &[]).is_err());
        let xml = r#"<sensei><analysis type="null" frequency="0"/></sensei>"#;
        assert!(ConfigurableAnalysis::from_xml(xml, &[null_factory()]).is_err());
        let xml = r#"<sensei><analysis type="null" frequency="ten"/></sensei>"#;
        assert!(ConfigurableAnalysis::from_xml(xml, &[null_factory()]).is_err());
    }

    #[test]
    fn spec_attr_helpers() {
        let xml = r#"<sensei><analysis type="null" bins="32"/></sensei>"#;
        let root = meshdata::xml::parse(xml).unwrap();
        let spec = parse_spec(root.child("analysis").unwrap()).unwrap();
        assert_eq!(spec.attr("bins"), Some("32"));
        assert_eq!(spec.attr_parse_or("bins", 8usize), 32);
        assert_eq!(spec.attr_parse_or("missing", 8usize), 8);
        assert_eq!(spec.attr_or("mesh", "default"), "default");
    }
}
