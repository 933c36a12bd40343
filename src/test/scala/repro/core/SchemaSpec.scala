package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SchemaSpec extends AnyFunSuite {
  // Paper Figure 1a: R(R_pk, S_fk, T_fk), S(S_pk, A, B), T(T_pk, C).
  val fig1: SchemaDef = SchemaDef(Seq(
    Relation("T", "T_pk", Seq(Attr("C", 0, 5)), Nil),
    Relation("S", "S_pk", Seq(Attr("A", 0, 100), Attr("B", 0, 10)), Nil),
    Relation("R", "R_pk", Nil, Seq(ForeignKey("S_fk", "S"), ForeignKey("T_fk", "T"))),
  ))

  test("view attrs follow the FK closure (paper §3.2 example)") {
    assert(fig1.viewAttrs("R") == Seq("A", "B", "C"))
    assert(fig1.viewAttrs("S") == Seq("A", "B"))
    assert(fig1.viewAttrs("T") == Seq("C"))
  }

  test("dependentsFirst puts R before S and T") {
    val order = fig1.dependentsFirst
    assert(order.indexOf("R") < order.indexOf("S"))
    assert(order.indexOf("R") < order.indexOf("T"))
  }

  test("chained dependencies order transitively") {
    val chain = SchemaDef(Seq(
      Relation("c", "c_pk", Seq(Attr("x", 0, 1)), Nil),
      Relation("b", "b_pk", Seq(Attr("y", 0, 1)), Seq(ForeignKey("c_fk", "c"))),
      Relation("a", "a_pk", Seq(Attr("z", 0, 1)), Seq(ForeignKey("b_fk", "b"))),
    ))
    assert(chain.dependentsFirst == Seq("a", "b", "c"))
    assert(chain.viewAttrs("a") == Seq("z", "y", "x"))
  }

  test("DAG-shaped dependencies are accepted (shared dimension)") {
    val dag = SchemaDef(Seq(
      Relation("d", "d_pk", Seq(Attr("w", 0, 1)), Nil),
      Relation("f1", "f1_pk", Nil, Seq(ForeignKey("d1", "d"))),
      Relation("f2", "f2_pk", Nil, Seq(ForeignKey("d2", "d"))),
    ))
    val order = dag.dependentsFirst
    assert(order.indexOf("f1") < order.indexOf("d") && order.indexOf("f2") < order.indexOf("d"))
  }

  test("cycles are rejected") {
    intercept[IllegalArgumentException] {
      SchemaDef(Seq(
        Relation("a", "a_pk", Nil, Seq(ForeignKey("b_fk", "b"))),
        Relation("b", "b_pk", Nil, Seq(ForeignKey("a_fk", "a"))),
      )).dependentsFirst
    }
  }

  test("duplicate attribute names are rejected") {
    intercept[IllegalArgumentException] {
      SchemaDef(Seq(
        Relation("a", "a_pk", Seq(Attr("x", 0, 1)), Nil),
        Relation("b", "b_pk", Seq(Attr("x", 0, 1)), Nil),
      )).attrByName
    }
  }

  test("unknown FK target is rejected") {
    intercept[IllegalArgumentException] {
      SchemaDef(Seq(Relation("a", "a_pk", Nil, Seq(ForeignKey("x", "nope")))))
    }
  }

  test("TPC-DS-lite and JOB-lite schemas are well-formed") {
    assert(repro.tpcds.TpcdsLite.schema.dependentsFirst.size == 10)
    assert(repro.job.JobLite.schema.dependentsFirst.size == 6)
    // store_returns closure reaches item through store_sales (chain).
    assert(repro.tpcds.TpcdsLite.schema.viewAttrs("store_returns").contains("i_category"))
  }
}

class ViewGraphSpec extends AnyFunSuite {
  import ViewGraph._

  /** Running-intersection property of an ordered clique list: each clique's
    * intersection with the union of its predecessors must be contained in a
    * single predecessor.
    */
  private def hasRip(svs: Seq[SubView]): Boolean =
    svs.indices.drop(1).forall { i =>
      val shared = svs(i).attrSet.intersect(svs.take(i).flatMap(_.attrs).toSet)
      shared.isEmpty || svs.take(i).exists(p => shared.subsetOf(p.attrSet))
    }

  private def cc(card: Long, attrs: String*): CC =
    CC("v", Dnf.of(Conjunct.of(attrs.map(a => AttrRange(a, Interval(0, 1)))).get), card)

  test("single CC yields one sub-view with its attrs") {
    val svs = subViews(Seq(cc(10, "a", "b")))
    assert(svs.size == 1 && svs.head.attrSet == Set("a", "b"))
  }

  test("disjoint CCs yield separate sub-views") {
    val svs = subViews(Seq(cc(1, "a", "b"), cc(2, "c", "d")))
    assert(svs.map(_.attrSet).toSet == Set(Set("a", "b"), Set("c", "d")))
  }

  test("chain a-b, b-c yields two overlapping cliques in RIP order") {
    val svs = subViews(Seq(cc(1, "a", "b"), cc(2, "b", "c")))
    assert(svs.map(_.attrSet).toSet == Set(Set("a", "b"), Set("b", "c")))
    assert(hasRip(svs))
  }

  test("4-cycle is chordalized (fill edge added) and cliques have RIP") {
    val svs = subViews(Seq(cc(1, "a", "b"), cc(2, "b", "c"), cc(3, "c", "d"), cc(4, "d", "a")))
    assert(svs.forall(_.attrs.size <= 3))
    assert(hasRip(svs))
    // Every CC must be covered by some clique.
    for (pair <- Seq(Set("a", "b"), Set("b", "c"), Set("c", "d"), Set("d", "a")))
      assert(svs.exists(s => pair.subsetOf(s.attrSet)), s"uncovered $pair")
  }

  test("a large clique CC is kept whole") {
    val svs = subViews(Seq(cc(1, "a", "b", "c", "d")))
    assert(svs.size == 1 && svs.head.attrs.size == 4)
  }

  test("no CCs yields no sub-views") {
    assert(subViews(Nil).isEmpty)
    assert(subViews(Seq(CC("v", Dnf.True, 5))).isEmpty)
  }

  test("every CC attr-set is inside some sub-view (random graphs)") {
    val rnd = new scala.util.Random(1)
    for (trial <- 1 to 25) {
      val attrs = ('a' to 'j').map(_.toString)
      val ccs = (1 to 8).map { i =>
        val k = 1 + rnd.nextInt(3)
        cc(i.toLong, rnd.shuffle(attrs).take(k): _*)
      }
      val svs = subViews(ccs)
      assert(hasRip(svs), s"RIP violated on trial $trial")
      ccs.foreach { c =>
        assert(svs.exists(s => c.pred.attrs.subsetOf(s.attrSet)),
          s"trial $trial: CC ${c.pred.attrs} uncovered")
      }
    }
  }
}
