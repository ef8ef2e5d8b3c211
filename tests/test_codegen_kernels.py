"""Generated fast-path kernels and element output corners.

Three contracts under test:

* the codegen tier is invisible: a generated kernel, the interpreted
  XSQ-F and XSQ-NC engines and the DOM oracle all return the same
  items (and the engines the same stats) — including on element
  output;
* generation is total: every plan ``compile_fastplan`` accepts gets a
  kernel, however many states or transition-row entries it has;
* element serialization is canonical: CDATA sections, entity
  references, comments/PIs inside the output subtree and mixed content
  all serialize exactly as the interpreted ``EventSerializer`` and the
  DOM baseline's ``DomElement.serialize`` do, because all three build
  output from parsed events, never by splicing raw input bytes.
"""

import pytest

import repro
from repro.baselines.dom import build_dom, evaluate
from repro.xsq.codegen import compile_kernel, kernel_source
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast, compile_fastplan
from repro.xsq.nc import XSQEngineNC

# Hard serialization corners: every document hides something that a
# raw-byte-splicing serializer would reproduce verbatim and therefore
# get wrong relative to the parsed-content canonical form.
DOC_CDATA = ("<pub><book><name><![CDATA[raw <markup> & junk]]></name>"
             "<author>A</author></book></pub>")
DOC_ENTITIES = ("<pub><book><name>A&amp;B &#60;x&#62; &quot;q&quot;</name>"
                "<author>B</author></book></pub>")
DOC_COMMENT_PI = ("<pub><book><name>He<!-- dropped -->llo</name>"
                  "<?pi also dropped?><author>C</author></book></pub>")
DOC_MIXED = ("<pub><book>lead<name>N</name>mid<author>D</author>tail"
             "</book></pub>")
DOC_NESTED = ("<pub><book id=\"1\"><name>outer<sub a=\"&lt;\">inner"
              "</sub></name><author>E</author></book></pub>")

CORNER_DOCS = [DOC_CDATA, DOC_ENTITIES, DOC_COMMENT_PI, DOC_MIXED,
               DOC_NESTED]

ELEMENT_QUERIES = ["/pub/book/name", "/pub/book", "/pub/book[author]",
                   "/pub/*/name"]


def all_engine_results(query, doc, check_stats=False):
    """(codegen, xsq-f, xsq-nc, dom) result lists for ``query``.

    With ``check_stats`` the kernel's RunStats must also equal XSQ-F's
    and XSQ-NC's field for field.
    """
    codegen = repro.compile(query, engine="fast")
    assert codegen.engine.kernel is not None
    f = XSQEngine(query)
    nc = XSQEngineNC(query)
    results = (codegen.run(doc), f.run(doc), nc.run(doc),
               evaluate(build_dom(doc), query))
    if check_stats:
        assert (codegen.stats.as_dict() == f.stats.as_dict()
                == nc.stats.as_dict()), query
    return results


class TestElementOutputCorners:
    @pytest.mark.parametrize("doc", CORNER_DOCS)
    @pytest.mark.parametrize("query", ELEMENT_QUERIES)
    def test_four_way_agreement(self, query, doc):
        codegen, f, nc, dom = all_engine_results(query, doc)
        assert codegen == f == nc == dom

    def test_cdata_re_escaped_not_spliced(self):
        got = repro.compile("/pub/book/name").run(DOC_CDATA)
        assert got == ["<name>raw &lt;markup&gt; &amp; junk</name>"]

    def test_entity_references_canonicalized(self):
        # &#60; and &quot; parse to '<' and '"'; serialization re-escapes
        # only what must be escaped, so the quote comes back literal.
        got = repro.compile("/pub/book/name").run(DOC_ENTITIES)
        assert got == ['<name>A&amp;B &lt;x&gt; "q"</name>']

    def test_comments_and_pis_dropped_text_coalesced(self):
        got = repro.compile("/pub/book/name").run(DOC_COMMENT_PI)
        assert got == ["<name>Hello</name>"]

    def test_mixed_content_preserves_order(self):
        got = repro.compile("/pub/book").run(DOC_MIXED)
        assert got == ["<book>lead<name>N</name>mid<author>D</author>"
                       "tail</book>"]

    def test_nested_subtree_with_attributes(self):
        got = repro.compile("/pub/book/name").run(DOC_NESTED)
        assert got == ['<name>outer<sub a="&lt;">inner</sub></name>']

    def test_roundtrip_matches_serializer_baseline(self):
        # The output of an element query over its own serialization is a
        # fixpoint: serialize(parse(serialize(x))) == serialize(x).
        for doc in CORNER_DOCS:
            first = repro.compile("/pub/book").run(doc)
            assert len(first) == 1
            again = repro.compile("/book").run(first[0])
            assert again == first


class TestKernelGeneration:
    def test_kernel_bound_as_run_batch(self):
        engine = XSQEngineFast("/pub/book/name/text()")
        assert engine.kernel is not None
        runtime = engine.push()._runtime
        assert "run_batch" in runtime.__dict__

    def test_runtime_requires_and_binds_kernel(self):
        from repro.xsq.fastpath import FastRuntime
        engine = XSQEngineFast("/pub/book/name/text()")
        with pytest.raises(TypeError):
            FastRuntime(engine.plan, engine.hpdt, [])
        runtime = FastRuntime(engine.plan, engine.hpdt, [],
                              kernel=engine.kernel)
        assert runtime.run_batch.__func__ is engine.kernel
        # The kernel is the only loop: the class defines none.
        assert not hasattr(FastRuntime, "run_batch")

    def test_kernel_source_is_inspectable(self):
        engine = XSQEngineFast("/pub/book/name/text()")
        source = engine.kernel.__xsq_source__
        assert source == kernel_source(engine.plan)
        assert "def __xsq_kernel__" in source
        compile(source, "<check>", "exec")  # stays valid python

    def test_kernel_memo_rides_plan(self):
        from repro.xsq.compile_cache import compile_hpdt
        plan = compile_fastplan(compile_hpdt("/pub/book/name/text()"))
        first = compile_kernel(plan)
        assert compile_kernel(plan) is first

    def test_deep_query_gets_kernel(self):
        # 25 states: one past the old unroll limit of 24.
        deep = "/" + "/".join("s%d" % i for i in range(24)) + "/text()"
        engine = XSQEngineFast(deep)
        assert engine.kernel is not None
        assert "25 states" in engine.kernel_note
        doc = "".join("<s%d>" % i for i in range(24))
        doc += "x" + "".join("</s%d>" % i for i in reversed(range(24)))
        assert engine.run(doc) == ["x"]

    def test_explain_names_the_kernel(self):
        explain = repro.compile("/pub/book/name/text()").explain()
        assert "kernel: generated kernel" in explain


def _deep_path_case(n=4000):
    """A general-shape path of ``n`` steps: the result buffers under
    the root's pending ``[k]`` until ``<k/>`` closes the document."""
    steps = (["s0[k]"] + ["s%d" % i for i in range(1, n - 1)]
             + ["s%d[@a]" % (n - 1)])
    last = n - 1
    doc = ("<s0>" + "".join("<s%d>" % i for i in range(1, last))
           + '<s%d a="1">deep</s%d><s%d>no-attr</s%d>'
           % (last, last, last, last)
           + "".join("</s%d>" % i for i in reversed(range(1, last)))
           + "<k/></s0>")
    return "/" + "/".join(steps) + "/text()", doc


def _wide_row_case(n=4000):
    """``n`` category-3 predicates on one step: an ``n``-entry row."""
    query = "/r/p" + "".join("[c%d]" % i for i in range(n)) + "/text()"
    doc = ("<r><p>yes" + "".join("<c%d/>" % i for i in reversed(range(n)))
           + "</p><p>no<c0/><c1/></p></r>")
    return query, doc


def _wide_cat5_case(n=3000):
    """``n`` category-5 predicates: an ``n``-entry child-text row."""
    query = ("/r/p" + "".join("[c%d='1']" % i for i in range(n))
             + "/text()")
    doc = ("<r><p>yes" + "".join("<c%d>1</c%d>" % (i, i) for i in range(n))
           + "</p><p>no<c0>1</c0><c1>2</c1></p></r>")
    return query, doc


class TestGenerationIsTotal:
    """Plans far past any unroll limit still get a kernel that agrees
    with XSQ-F, XSQ-NC and the DOM oracle, stats included."""

    @pytest.mark.parametrize("case", [_deep_path_case, _wide_row_case,
                                      _wide_cat5_case],
                             ids=["4000-step-path", "4000-predicate-row",
                                  "3000-entry-cat5-row"])
    def test_large_plan_gets_kernel_and_agrees(self, case):
        query, doc = case()
        codegen, f, nc, dom = all_engine_results(query, doc,
                                                 check_stats=True)
        assert codegen == f == nc == dom
        assert codegen in (["deep"], ["yes"])


class TestKernelEquivalenceWithStats:
    QUERIES = ["/pub/book/name/text()", "/pub/book/@id",
               "/pub/book[@id]/name/text()", "/pub/book/count()",
               "/pub/book[author]/name", "/pub/book"]
    DOC = ("<pub><book id=\"1\"><name>First</name><author>A</author>"
           "</book><book><name>Second</name></book>"
           "<book id=\"3\"><name>Third</name><author>B</author>"
           "</book></pub>")

    @pytest.mark.parametrize("query", QUERIES)
    def test_kernel_matches_interpreter_and_stats(self, query):
        with_kernel = XSQEngineFast(query)
        nc = XSQEngineNC(query)
        assert with_kernel.run(self.DOC) == nc.run(self.DOC)
        assert with_kernel.run(self.DOC) == XSQEngine(query).run(self.DOC)
        for field in ("emitted", "enqueued", "cleared",
                      "peak_buffered_items", "peak_instances"):
            assert (getattr(with_kernel.stats, field)
                    == getattr(nc.stats, field)), field


class TestPushModeKernels:
    def feed_all_offsets(self, query_text, doc):
        expected = repro.compile(query_text).run(doc)
        query = repro.compile(query_text)
        for offset in range(len(doc) + 1):
            got = (query.feed(doc[:offset]) + query.feed(doc[offset:])
                   + query.finish())
            assert got == expected, "split at %d diverged" % offset
        return expected

    @pytest.mark.parametrize("doc", CORNER_DOCS)
    def test_element_output_every_offset(self, doc):
        results = self.feed_all_offsets("/pub/book/name", doc)
        assert len(results) == 1

    def test_text_output_every_offset(self):
        got = self.feed_all_offsets("/pub/book/name/text()", DOC_ENTITIES)
        assert got == ['A&B <x> "q"']
