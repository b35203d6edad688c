//! A minimal XML parser.
//!
//! Two consumers: the VTU reader (VTK XML files) and the SENSEI-style
//! runtime configuration (`<sensei><analysis .../></sensei>`, Listing 1 of
//! the paper). Supports elements, attributes, text, self-closing tags,
//! comments, XML declarations, and the five predefined entities. No
//! namespaces, DTDs, or CDATA — none appear in the formats we read.

use crate::{Error, Result};

/// One parsed element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct XmlNode {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly inside this element.
    pub text: String,
}

impl XmlNode {
    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attribute parsed to a type, with a descriptive error.
    ///
    /// # Errors
    /// Missing attribute or failed parse.
    pub fn attr_parse<T: std::str::FromStr>(&self, name: &str) -> Result<T> {
        let raw = self
            .attr(name)
            .ok_or_else(|| Error::Parse(format!("<{}> missing attribute '{name}'", self.name)))?;
        raw.parse().map_err(|_| {
            Error::Parse(format!(
                "<{}> attribute '{name}'='{raw}' failed to parse",
                self.name
            ))
        })
    }

    /// First child element with this tag name.
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with this tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Depth-first search for the first descendant with this tag name.
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Deepest element nesting [`parse`] accepts (the root is level 1). The
/// parser recurses once per open element and its input is a user's
/// analysis configuration or a checkpoint file, so the depth must not be
/// the document's to choose; a `.vtu` nests 5 deep, a `<sensei>`
/// configuration 2.
pub const MAX_DEPTH: usize = 64;

/// Parse a document and return its root element.
///
/// # Errors
/// Any malformed construct, or nesting deeper than [`MAX_DEPTH`], yields
/// [`Error::Parse`] with position context.
pub fn parse(input: &str) -> Result<XmlNode> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, and processing instructions/declarations.
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                match find_sub(self.bytes, self.pos + 4, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.starts_with("<?") {
                match find_sub(self.bytes, self.pos + 2, "?>") {
                    Some(end) => self.pos = end + 2,
                    None => return Err(self.err("unterminated declaration")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 name"))?
            .to_string())
    }

    fn parse_element(&mut self) -> Result<XmlNode> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let node = self.parse_open_element();
        self.depth -= 1;
        node
    }

    /// The element at `pos`, children included; `depth` already counts it.
    fn parse_open_element(&mut self) -> Result<XmlNode> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut node = XmlNode {
            name,
            ..Default::default()
        };
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("expected '/>'"));
                    }
                    self.pos += 2;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"') | Some(b'\'')) {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let quote = quote.unwrap();
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("non-utf8 attribute"))?;
                    node.attrs.push((key, unescape(raw)));
                    self.pos += 1;
                }
                None => return Err(self.err("unexpected end inside tag")),
            }
        }
        // Content until matching close tag.
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err(&format!("missing </{}>", node.name)));
            }
            if self.starts_with("<!--") {
                match find_sub(self.bytes, self.pos + 4, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != node.name {
                    return Err(self.err(&format!(
                        "mismatched close tag </{close}> for <{}>",
                        node.name
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                return Ok(node);
            } else if self.peek() == Some(b'<') {
                node.children.push(self.parse_element()?);
            } else {
                let start = self.pos;
                while self.peek().is_some_and(|c| c != b'<') {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("non-utf8 text"))?;
                node.text.push_str(&unescape(raw));
            }
        }
    }
}

fn find_sub(haystack: &[u8], from: usize, needle: &str) -> Option<usize> {
    let nb = needle.as_bytes();
    if from > haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(nb.len())
        .position(|w| w == nb)
        .map(|i| i + from)
}

fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let (replacement, consumed) = if rest.starts_with("&lt;") {
            ('<', 4)
        } else if rest.starts_with("&gt;") {
            ('>', 4)
        } else if rest.starts_with("&amp;") {
            ('&', 5)
        } else if rest.starts_with("&quot;") {
            ('"', 6)
        } else if rest.starts_with("&apos;") {
            ('\'', 6)
        } else {
            ('&', 1)
        };
        out.push(replacement);
        rest = &rest[consumed..];
    }
    out.push_str(rest);
    out
}

/// Escape text for inclusion in XML content or attributes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_listing_1() {
        let doc = r#"
<sensei>
  <analysis type="catalyst" pipeline="pythonscript" filename="analysis.py"
            frequency="100" />
</sensei>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "sensei");
        let a = root.child("analysis").unwrap();
        assert_eq!(a.attr("type"), Some("catalyst"));
        assert_eq!(a.attr("pipeline"), Some("pythonscript"));
        assert_eq!(a.attr_parse::<u64>("frequency").unwrap(), 100);
    }

    #[test]
    fn parses_declaration_comments_and_nesting() {
        let doc = r#"<?xml version="1.0"?>
<!-- header comment -->
<VTKFile type="UnstructuredGrid">
  <UnstructuredGrid>
    <Piece NumberOfPoints="8" NumberOfCells="1">
      <Points><DataArray type="Float64"/></Points>
    </Piece>
  </UnstructuredGrid>
</VTKFile>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "VTKFile");
        let piece = root.find("Piece").unwrap();
        assert_eq!(piece.attr_parse::<usize>("NumberOfPoints").unwrap(), 8);
        assert!(root.find("DataArray").is_some());
        assert!(root.find("Nope").is_none());
    }

    #[test]
    fn text_content_and_entities() {
        let root = parse("<a x='1 &lt; 2'>hello &amp; goodbye</a>").unwrap();
        assert_eq!(root.text.trim(), "hello & goodbye");
        assert_eq!(root.attr("x"), Some("1 < 2"));
    }

    #[test]
    fn escape_unescape_roundtrip() {
        let s = "a<b>&\"c'd";
        assert_eq!(unescape(&escape(s)), s);
    }

    #[test]
    fn children_named_filters() {
        let root = parse("<r><x i='1'/><y/><x i='2'/></r>").unwrap();
        let xs: Vec<_> = root.children_named("x").collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].attr("i"), Some("2"));
    }

    #[test]
    fn rejects_mismatched_close_tag() {
        assert!(parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(parse("<a").is_err());
        assert!(parse("<!-- never closed").is_err());
        assert!(parse("<a x=>").is_err());
        assert!(parse("<a x='unterminated>").is_err());
    }

    #[test]
    fn comments_inside_content_are_skipped() {
        let root = parse("<a><!-- hi --><b/></a>").unwrap();
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn attr_parse_error_mentions_context() {
        let root = parse("<a n='xyz'/>").unwrap();
        let err = root.attr_parse::<u32>("n").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("'n'") && msg.contains("xyz"), "{msg}");
    }
}
