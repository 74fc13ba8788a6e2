"""Scenario graphs: realistic multi-relational domains for examples and E5.

Three domains, each deterministic given its seed:

* :func:`software_community` — the developer/software world the authors'
  own systems (Gremlin, Neo4j) are usually demonstrated on: people *know*
  each other, *create* software, software *depends_on* software.
* :func:`scholarly_graph` — authors, papers, venues with *authored*,
  *cites*, *published_in*: the co-citation / co-authorship projections of
  section IV-C have crisp meaning here, so E5 runs on this graph.
* :func:`travel_network` — cities connected by *flight*, *train*, *bus*
  with per-edge costs: regular path queries ("flights then any number of
  trains") are natural, so PathQL examples use it.
"""

from __future__ import annotations

import random

from repro.graph.graph import MultiRelationalGraph

__all__ = ["software_community", "scholarly_graph", "travel_network"]


def software_community(num_people: int = 12, num_projects: int = 8,
                       seed: int = 7) -> MultiRelationalGraph:
    """People who *know* each other and *create* software that *depends_on* software.

    Structure guarantees: the knows-relation is connected enough for
    friend-of-friend queries to be non-empty, every project has at least one
    creator, and dependency edges form a DAG (no project depends on itself
    transitively) so dependency closures terminate.
    """
    rng = random.Random(seed)
    graph = MultiRelationalGraph(name="software-community")
    people = ["person{}".format(k) for k in range(num_people)]
    projects = ["project{}".format(k) for k in range(num_projects)]
    for index, person in enumerate(people):
        graph.add_vertex(person, kind="person", seniority=index % 5)
    for index, project in enumerate(projects):
        graph.add_vertex(project, kind="software", age=index)
    # knows: a ring (guaranteed connectivity) plus random chords.
    for index, person in enumerate(people):
        graph.add_edge(person, "knows", people[(index + 1) % num_people])
    for _ in range(num_people):
        a, b = rng.sample(people, 2)
        graph.add_edge(a, "knows", b)
    # created: each project gets 1-3 creators.
    for project in projects:
        for person in rng.sample(people, rng.randint(1, 3)):
            graph.add_edge(person, "created", project)
    # depends_on: DAG by only depending on strictly older projects.
    for index, project in enumerate(projects):
        for older in range(index):
            if rng.random() < 0.4:
                graph.add_edge(project, "depends_on", projects[older])
    return graph


def scholarly_graph(num_authors: int = 15, num_papers: int = 25,
                    num_venues: int = 4, seed: int = 11) -> MultiRelationalGraph:
    """Authors/papers/venues with *authored*, *cites*, *published_in*.

    Citations point only to earlier papers (a DAG, as in reality), each
    paper has 1-4 authors and one venue.  The E5 experiment derives
    co-authorship (``authored ><_o authored^-1``) and author-level citation
    (``authored ><_o cites ><_o authored^-1``) projections from this graph.
    """
    rng = random.Random(seed)
    graph = MultiRelationalGraph(name="scholarly")
    authors = ["author{}".format(k) for k in range(num_authors)]
    papers = ["paper{}".format(k) for k in range(num_papers)]
    venues = ["venue{}".format(k) for k in range(num_venues)]
    for author in authors:
        graph.add_vertex(author, kind="author")
    for year, paper in enumerate(papers):
        graph.add_vertex(paper, kind="paper", year=2000 + year)
    for venue in venues:
        graph.add_vertex(venue, kind="venue")
    for index, paper in enumerate(papers):
        for author in rng.sample(authors, rng.randint(1, 4)):
            graph.add_edge(author, "authored", paper)
        graph.add_edge(paper, "published_in", rng.choice(venues))
        # cite up to 4 strictly earlier papers
        if index:
            cited = rng.sample(papers[:index], min(index, rng.randint(0, 4)))
            for target in cited:
                graph.add_edge(paper, "cites", target)
    return graph


def travel_network(num_cities: int = 10, seed: int = 3) -> MultiRelationalGraph:
    """Cities linked by *flight*, *train* and *bus* edges with cost properties.

    Flights form a hub-and-spoke star around city0; trains form a corridor
    along consecutive cities; buses add random short hops.  Costs are edge
    properties (flights expensive, buses cheap) so weighted examples have
    something to optimize.
    """
    rng = random.Random(seed)
    graph = MultiRelationalGraph(name="travel")
    cities = ["city{}".format(k) for k in range(num_cities)]
    for city in cities:
        graph.add_vertex(city, kind="city")
    hub = cities[0]
    for city in cities[1:]:
        graph.add_edge(hub, "flight", city, cost=200 + rng.randint(0, 200))
        graph.add_edge(city, "flight", hub, cost=200 + rng.randint(0, 200))
    for index in range(num_cities - 1):
        graph.add_edge(cities[index], "train", cities[index + 1],
                       cost=40 + rng.randint(0, 40))
        graph.add_edge(cities[index + 1], "train", cities[index],
                       cost=40 + rng.randint(0, 40))
    for _ in range(num_cities):
        a, b = rng.sample(cities, 2)
        graph.add_edge(a, "bus", b, cost=10 + rng.randint(0, 20))
    return graph
